"""Command-line interface: exit codes, config precedence, artifacts, determinism."""
import csv
import json
import os

import pytest

from conftest import polynomial_beta_map
from cpmfit.cli import main
from cpmfit.predict import _line_seed

LAWS = {
    0: (0.10, 0.10),
    1: (2.0, 0.8, -0.2),
    2: (0.95, 0.25),
    3: (1.1, 0.3, 0.1),
    4: (3.0, 0.5),
}

CROSSVAL_ARTIFACTS = ("report.csv", "report.json", "summary.csv",
                      "beta_nodes.csv", "beta_poly.csv", "curves.svg")

FAST_CONFIG = {
    "de_population": 10,
    "de_max_iters": 150,
    "pso_particles": 30,
    "pso_iters": 20,
    "local_max_iters": 2000,
}


def write_map_csv(path, speeds=(300, 400, 500), n_points=8):
    cpm = polynomial_beta_map(speeds, LAWS, n_points=n_points)
    rows = ["speed,m_dot,pi"]
    for sl in cpm.speedlines:
        for p in sl.points:
            rows.append(f"{sl.speed!r},{p.m_dot!r},{p.pi!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def flat_line_map_csv(tmp_path):
    """Four fittable lines plus a flat line (4 points at pi = 1.23) at speed 500."""
    src = write_map_csv(tmp_path / "flat.csv", speeds=(300, 350, 400, 450))
    with open(src, "a") as fh:
        for m in (0.1, 0.2, 0.3, 0.4):
            fh.write(f"500.0,{m},1.23\n")
    return src


@pytest.fixture
def map_csv(tmp_path):
    return write_map_csv(tmp_path / "map.csv")


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestExitCodes:
    def test_fit_success(self, tmp_path, map_csv, config_file):
        out = tmp_path / "out"
        rc = main(["fit", str(map_csv), "--config", str(config_file),
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        for name in ("fit_results.csv", "beta_table.csv", "curves.svg"):
            assert (out / name).exists()
        rows = read_csv(out / "fit_results.csv")
        assert len(rows) == 4  # header + 3 speedlines
        assert all(r[5] == "OK" for r in rows[1:])

    def test_fit_partial_failure(self, tmp_path, config_file):
        # One speedline with constant pressure ratio cannot be fitted.
        src = tmp_path / "map.csv"
        write_map_csv(src, speeds=(300, 400, 500))
        with open(src, "a") as fh:
            for m in (0.1, 0.2, 0.3, 0.4):
                fh.write(f"600.0,{m},1.23\n")
        out = tmp_path / "out"
        rc = main(["fit", str(src), "--config", str(config_file),
                   "--out", str(out), "--seed", "0"])
        assert rc == 2
        rows = read_csv(out / "fit_results.csv")
        statuses = [r[5] for r in rows[1:]]
        assert statuses.count("FAILED") == 1
        assert statuses.count("OK") == 3

    # One flat speedline (constant pressure ratio) among five cannot be
    # fitted; every subcommand degrades to exit code 2 with failure rows.

    def test_crossval_partial_failure(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["crossval", str(flat_line_map_csv(tmp_path)), "--config",
                   str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 2
        # Artifacts are written only after all are computed: the full set.
        assert sorted(os.listdir(out)) == sorted(CROSSVAL_ARTIFACTS)
        report = json.loads((out / "report.json").read_text())
        assert [r["speed"] for r in report] == [300, 350, 400, 450, 500]
        # Every hold-out regresses over the fitted lines only; the four that
        # lose the flat line from their regression flag it.
        assert [r["status"] for r in report] == ["OK"] * 5
        assert all("failed_fits=1" in r["flags"].split(";") for r in report[:4])
        assert "failed_fits" not in report[4]["flags"]
        # Without the flat line, 450 lies beyond the fitted lines of its hold-out.
        assert [r["kind"] for r in report] == ["EXTRAPOLATION", "INTERPOLATION",
                                               "INTERPOLATION", "EXTRAPOLATION",
                                               "EXTRAPOLATION"]
        nodes = read_csv(out / "beta_nodes.csv")
        assert nodes[5] == ["500", "", "", "", "", ""]
        assert all(all(cell for cell in row) for row in nodes[1:5])
        assert len(read_csv(out / "beta_poly.csv")) == 101

    def test_predict_holdout_partial_failure(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["predict", str(flat_line_map_csv(tmp_path)), "--target", "400",
                   "--config", str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 2
        [row] = json.loads((out / "report.json").read_text())
        assert row["status"] == "OK"
        assert "failed_fits=1" in row["flags"].split(";")
        assert (out / "curves.svg").exists()

    def test_predict_pure_partial_failure(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["predict", str(flat_line_map_csv(tmp_path)), "--target", "425",
                   "--config", str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 2
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["status"] == "FAILED"
        assert [f["speed"] for f in payload["fit_failures"]] == [500.0]
        assert sorted(os.listdir(out)) == ["prediction.json"]

    def test_bench_partial_failure(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["bench", str(flat_line_map_csv(tmp_path)), "--config", str(config_file),
                   "--repeats", "1", "--out", str(out), "--seed", "0"])
        assert rc == 2
        rows = read_csv(out / "bench.csv")[1:]
        failed = [(r[0], r[1]) for r in rows if r[7] == "FAILED"]
        assert failed == [("none", "500"), ("pso", "500"), ("de", "500")]
        # A failed row keeps the per-line seed its fit ran with.
        assert {r[3] for r in rows if r[1] == "500"} == {str(_line_seed(0, 500.0))}
        assert (out / "bench_summary.csv").exists()

    def test_missing_input_file(self, tmp_path):
        rc = main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("speed,m_dot,pi\n300,abc,1.8\n")
        rc = main(["fit", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    def test_crossval_too_few_speedlines(self, tmp_path, config_file):
        src = write_map_csv(tmp_path / "two.csv", speeds=(300, 400))
        rc = main(["crossval", str(src), "--config", str(config_file),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_predict_requires_target(self, map_csv, tmp_path):
        rc = main(["predict", str(map_csv), "--out", str(tmp_path)])
        assert rc == 1


class TestCrossval:
    def test_artifacts(self, tmp_path, map_csv, config_file):
        out = tmp_path / "out"
        rc = main(["crossval", str(map_csv), "--config", str(config_file),
                   "--out", str(out), "--seed", "0"])
        assert rc == 0
        for name in ("report.csv", "report.json", "summary.csv",
                     "beta_nodes.csv", "beta_poly.csv", "curves.svg"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report) == 3
        # Holding out an end speed leaves the target outside the remaining span.
        kinds = [r["kind"] for r in report]
        assert kinds == ["EXTRAPOLATION", "INTERPOLATION", "EXTRAPOLATION"]
        nodes = read_csv(out / "beta_nodes.csv")
        assert nodes[0] == ["speed", "m_zs", "pi_zs", "m_ch", "pi_ch", "cur"]
        assert len(nodes) == 4
        poly = read_csv(out / "beta_poly.csv")
        assert len(poly) == 101  # header + 100 samples

    def test_determinism(self, tmp_path, map_csv, config_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["crossval", str(map_csv), "--config", str(config_file),
                       "--out", str(out), "--seed", "11"])
            assert rc == 0
            outs.append(out)
        for name in ("report.csv", "report.json", "summary.csv", "curves.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestPredict:
    def test_holdout_target(self, tmp_path, map_csv, config_file):
        out = tmp_path / "out"
        rc = main(["predict", str(map_csv), "--target", "400",
                   "--config", str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report[0]["status"] == "OK"
        assert (out / "curves.svg").exists()

    def test_holdout_target_within_speed_tolerance(self, tmp_path, config_file):
        # The 425 line's rows carry speeds jittered within the grouping
        # tolerance, so its grouped speed is their mean, not exactly 425.
        cpm = polynomial_beta_map((300, 425, 500), LAWS, n_points=8)
        rows = ["speed,m_dot,pi"]
        for sl in cpm.speedlines:
            for i, p in enumerate(sl.points):
                speed = sl.speed + (1e-4 * (1 + i % 2) if sl.speed == 425 else 0.0)
                rows.append(f"{speed!r},{p.m_dot!r},{p.pi!r}")
        src = tmp_path / "jitter.csv"
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main(["predict", str(src), "--target", "425",
                   "--config", str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 0
        [row] = json.loads((out / "report.json").read_text())
        assert row["status"] == "OK"
        assert row["speed"] != 425 and row["speed"] == pytest.approx(425, rel=1e-6)
        assert not (out / "prediction.json").exists()

    def test_pure_prediction(self, tmp_path, map_csv, config_file):
        out = tmp_path / "out"
        rc = main(["predict", str(map_csv), "--target", "450",
                   "--config", str(config_file), "--out", str(out), "--seed", "0"])
        assert rc == 0
        payload = json.loads((out / "prediction.json").read_text())
        assert payload["status"] == "OK"
        assert payload["no_ground_truth"] is True
        assert set(payload["beta"]) == {"m_zs", "pi_zs", "m_ch", "pi_ch", "cur"}
        curve = read_csv(out / "prediction_curve.csv")
        assert curve[0] == ["m_dot", "pi"]
        assert len(curve) == 201


class TestConfigPrecedence:
    def test_flag_overrides_config_seed(self, tmp_path, map_csv):
        cfg = dict(FAST_CONFIG, seed=5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_flag = tmp_path / "flag"
        out_plain = tmp_path / "plain"
        main(["fit", str(map_csv), "--config", str(cfg_path),
              "--seed", "7", "--out", str(out_flag)])
        cfg_path7 = tmp_path / "cfg7.json"
        cfg_path7.write_text(json.dumps(dict(FAST_CONFIG, seed=7)))
        main(["fit", str(map_csv), "--config", str(cfg_path7), "--out", str(out_plain)])
        assert (out_flag / "beta_table.csv").read_bytes() == \
            (out_plain / "beta_table.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, map_csv, config_file, monkeypatch):
        out_env = tmp_path / "env"
        out_flag = tmp_path / "flag"
        monkeypatch.setenv("CPMFIT_SEED", "13")
        main(["fit", str(map_csv), "--config", str(config_file), "--out", str(out_env)])
        monkeypatch.delenv("CPMFIT_SEED")
        main(["fit", str(map_csv), "--config", str(config_file),
              "--seed", "13", "--out", str(out_flag)])
        assert (out_env / "beta_table.csv").read_bytes() == \
            (out_flag / "beta_table.csv").read_bytes()

    def test_init_flag(self, tmp_path, map_csv, config_file):
        out = tmp_path / "out"
        rc = main(["fit", str(map_csv), "--config", str(config_file),
                   "--init", "none", "--out", str(out), "--seed", "0"])
        assert rc == 0


class TestBench:
    def test_artifacts_and_flags(self, tmp_path, config_file):
        src = write_map_csv(tmp_path / "one.csv", speeds=(300, 400, 500))
        out = tmp_path / "out"
        rc = main(["bench", str(src), "--config", str(config_file),
                   "--repeats", "1", "--out", str(out), "--seed", "0"])
        assert rc == 0
        rows = read_csv(out / "bench.csv")
        assert rows[0] == ["strategy", "speed", "repeat", "seed",
                           "rmse", "max_err", "ortho", "status"]
        assert len(rows) == 1 + 3 * 3  # 3 strategies x 3 lines x 1 repeat
        summary = read_csv(out / "bench_summary.csv")
        assert {r[0] for r in summary[1:]} == {"none", "pso", "de"}
        # Single repeat: across-repeat spread is undefined.
        assert all(r[7] == "sd_undefined" for r in summary[1:])


BAD_CONFIGS = {
    "unknown_init": ({"init": "bogus"}, []),
    "nonpositive_population": ({"de_population": 0}, []),
    "malformed_json": ("{\"seed\": ", []),
    "unfittable_metric": ({"metric": "residual_sd"}, []),
    "unknown_key": ({"de_max_iter": 50}, []),
    "non_integer_degree": ({"degree": 2.5}, []),
    "config_bool_spelling": ({"normalize_speed": "maybe"}, []),
    "flag_bool_spelling": ({}, ["--normalize-speed", "maybe"]),
    "nonpositive_repeats": ({"repeats": 0}, []),
}

# Bad command lines other than config values: argv from (tmp_path, map_csv).
BAD_RUNS = {
    "zero_repeats": lambda tmp, src: ["bench", src, "--repeats", "0"],
    "negative_repeats": lambda tmp, src: ["bench", src, "--repeats", "-3"],
    "holdout_of_two_lines": lambda tmp, src: [
        "predict", str(write_map_csv(tmp / "two.csv", speeds=(300, 400))), "--target", "400"],
    "input_is_directory": lambda tmp, src: ["fit", str(tmp)],
    "nan_target": lambda tmp, src: ["predict", src, "--target", "nan"],
    "inf_target": lambda tmp, src: ["predict", src, "--target", "inf"],
}


class TestConfigErrors:
    @pytest.mark.parametrize("config, flags", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_input_is_one_error_line(self, tmp_path, map_csv, capsys, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "out"
        rc = main(["fit", str(map_csv), "--config", str(cfg), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", BAD_RUNS.values(), ids=BAD_RUNS.keys())
    def test_bad_run_is_one_error_line(self, tmp_path, map_csv, capsys, argv):
        out = tmp_path / "out"
        rc = main([*argv(tmp_path, str(map_csv)), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_keys_match_flags(self, tmp_path, map_csv):
        options = {"metric": "rmse", "init": "none", "solver": "qn", "mode": "massflow",
                   "degree": 1, "normalize_speed": "false"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(FAST_CONFIG, **options)))
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "cfg.json").write_text(json.dumps(FAST_CONFIG))
        flags = [a for key, v in options.items()
                 for a in (f"--{key.replace('_', '-')}", str(v))]
        outs = []
        for name, argv in (("by_key", ["--config", str(cfg)]),
                           ("by_flag", ["--config", str(plain / "cfg.json"), *flags])):
            outs.append(tmp_path / name)
            rc = main(["predict", str(map_csv), "--target", "400", "--seed", "0",
                       "--out", str(outs[-1]), *argv])
            assert rc == 0
        for name in ("report.csv", "report.json", "curves.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
