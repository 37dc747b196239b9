"""Command-line entry point: fit, predict, crossval and bench subcommands.

Configuration comes from an optional JSON file (--config) with
command-line flags taking precedence; the seed falls back to the
CPMFIT_SEED environment variable.  All artifact files are written
atomically (write-then-rename) after computation finishes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .dataio import (
    _fmt,
    csv_text,
    export_curve_svg,
    export_report,
    group_speedlines,
    json_text,
    normalize_map,
    parse_map_csv,
)
from .errors import CpmFitError, InvalidPredictionError
from .metrics import EvalMode, MetricKind, _clamped_prediction, _pointwise_summary, ortho_sum
from .model import sample_curve
from .optimize import FIT_METRICS, FitConfig, InitStrategy, LocalSolver
from .predict import (
    BETA_FIELDS,
    PredictionConfig,
    find_speedline,
    fit_beta_polynomials,
    fit_each_line,
    fit_table,
    fitted_pairs,
    holdout_predict,
    loo_from_fits,
    predict_beta,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2

TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")


def _values(members) -> list[str]:
    return sorted(m.value for m in members)


def _bool(value) -> bool:
    word = str(value).lower()
    if word not in TRUE_WORDS + FALSE_WORDS:
        raise ValueError(f"{value!r} is not one of {', '.join(TRUE_WORDS + FALSE_WORDS)}")
    return word in TRUE_WORDS


def _spelled(cast):
    """Parse a value from its spelling, as a flag's: 2.5 is no integer, true no number."""
    return lambda value: cast(str(value))


_int, _float = _spelled(int), _spelled(float)


# Every config-file key: its parser, then where its value goes ("fit" is
# FitConfig, "pred" PredictionConfig, "run" the per-run settings).  A flag
# of the same name parses through the same entry.
OPTIONS = {
    "seed": (_int, "fit.seed"),
    "metric": (MetricKind, "fit.metric"),
    "init": (InitStrategy, "fit.init_strategy"),
    "solver": (LocalSolver, "fit.local_solver"),
    "mode": (EvalMode, "fit.mode", "pred.eval_mode"),
    "de_population": (_int, "fit.de_population"),
    "de_max_iters": (_int, "fit.de_max_iters"),
    "pso_particles": (_int, "fit.pso_particles"),
    "pso_iters": (_int, "fit.pso_iters"),
    "local_max_iters": (_int, "fit.local_max_iters"),
    "objective_tol": (_float, "fit.objective_tol"),
    "simplex_tol": (_float, "fit.simplex_tol"),
    "degree": (_int, "pred.degree"),
    "normalize": (_bool, "run.normalize"),
    "repeats": (_int, "run.repeats"),
}


def write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise CpmFitError(f"config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CpmFitError("config file must contain a JSON object")
    unknown = sorted(set(cfg) - set(OPTIONS))
    if unknown:
        raise CpmFitError(f"unknown config key(s): {', '.join(unknown)}")
    return cfg


def build_configs(args) -> tuple[FitConfig, PredictionConfig, dict]:
    """Merge defaults, config-file values, CPMFIT_SEED and command-line flags."""
    file_cfg = _load_config_file(args.config)
    env = {"seed": os.environ.get("CPMFIT_SEED")}
    kwargs = {"fit": {}, "pred": {}, "run": {"normalize": True, "repeats": 10}}
    for key, (parse, *targets) in OPTIONS.items():
        # Flag, else config-file key, else environment, else default.
        value = next((v for v in (getattr(args, key, None), file_cfg.get(key), env.get(key))
                      if v is not None), None)
        if value is None:
            continue
        try:
            value = parse(value)
        except ValueError as exc:
            raise CpmFitError(f"{key}: {exc}") from exc
        for target in targets:
            obj, field = target.split(".")
            kwargs[obj][field] = value
    try:
        if kwargs["run"]["repeats"] < 1:
            raise ValueError("repeats must be positive")
        return FitConfig(**kwargs["fit"]), PredictionConfig(**kwargs["pred"]), kwargs["run"]
    except ValueError as exc:
        raise CpmFitError(str(exc)) from exc


def _load_map(path: str, normalize: bool):
    with open(path) as fh:
        records = parse_map_csv(fh.read())
    cpm = group_speedlines(records, map_id=os.path.basename(path))
    return normalize_map(cpm)[0] if normalize else cpm


# ---------------------------------------------------------------------------
# Subcommands


def _write_artifacts(out: str, artifacts: dict) -> None:
    """Write every {file name: text} artifact; called only once all are computed."""
    for name, text in artifacts.items():
        write_text_atomic(os.path.join(out, name), text)


def cmd_fit(args) -> int:
    fit_cfg, _, extras = build_configs(args)
    cpm = _load_map(args.input, extras["normalize"])
    fits = fit_each_line(cpm.speedlines, fit_cfg)
    rows = []
    beta_rows = []
    predicted = []
    for i, (line, result) in enumerate(zip(cpm.speedlines, fits)):
        if isinstance(result, CpmFitError):
            rows.append([i, _fmt(line.speed), "", "", "", "FAILED", str(result)])
            continue
        rows.append([i, _fmt(line.speed), _fmt(result.objective), result.metric.value,
                     result.seed, "OK", "underdetermined" if result.underdetermined else ""])
        beta_rows.append([_fmt(line.speed)] +
                         [_fmt(v) for v in result.beta.as_array()])
        predicted.append((line.speed, result.beta))
    _write_artifacts(args.out, {
        "fit_results.csv": csv_text(
            ["index", "speed", "objective", "metric", "seed", "status", "flags"], rows),
        "beta_table.csv": csv_text(["speed", *BETA_FIELDS], beta_rows),
        "curves.svg": export_curve_svg(cpm.speedlines, predicted),
    })
    return EXIT_PARTIAL if any(isinstance(f, CpmFitError) for f in fits) else EXIT_OK


def cmd_crossval(args) -> int:
    fit_cfg, pred_cfg, extras = build_configs(args)
    cpm = _load_map(args.input, extras["normalize"])
    if len(cpm.speedlines) < 3:
        print("error: leave-one-out needs >= 3 speedlines", file=sys.stderr)
        return EXIT_ERROR
    # One fit per line, shared by every hold-out and by the beta evolution.
    fits = fit_each_line(cpm.speedlines, fit_cfg)
    reports, summaries = loo_from_fits(cpm, fits, pred_cfg)

    sum_rows = []
    for s in summaries:
        for metric in MetricKind:
            st = s.stats[metric]
            sum_rows.append([s.kind.value.upper(), metric.value, s.n_total, s.n_failed,
                             _fmt(st["mean"]), _fmt(st["sd"]), _fmt(st["median"])])

    # Beta evolution: fitted nodes (empty cells for a failed line) plus the
    # regression over the fitted lines sampled at 100 speeds.
    node_rows = []
    for line, fit in zip(cpm.speedlines, fits):
        cells = ([""] * len(BETA_FIELDS) if isinstance(fit, CpmFitError)
                 else [_fmt(v) for v in fit.beta.as_array()])
        node_rows.append([_fmt(line.speed), *cells])
    table = fit_table(fitted_pairs(zip(cpm.speedlines, fits)))
    poly_rows = []
    if len(table) >= 2:
        model = fit_beta_polynomials(table, pred_cfg)
        speeds = np.linspace(table.speeds().min(), table.speeds().max(), 100)
        raw = model.evaluate_raw(speeds)
        poly_rows = [[_fmt(float(speeds[i]))] + [_fmt(float(raw[j, i])) for j in range(5)]
                     for i in range(speeds.size)]

    predicted = [(r.target_speed, r.predicted_beta)
                 for r in reports if r.status == "ok"]
    _write_artifacts(args.out, {
        "report.csv": export_report(reports, "csv", pred_cfg.eval_mode),
        "report.json": export_report(reports, "json", pred_cfg.eval_mode),
        "summary.csv": csv_text(
            ["kind", "metric", "n_total", "n_failed", "mean", "sd", "median"], sum_rows),
        "beta_nodes.csv": csv_text(["speed", *BETA_FIELDS], node_rows),
        "beta_poly.csv": csv_text(["speed", *BETA_FIELDS], poly_rows),
        "curves.svg": export_curve_svg(cpm.speedlines, predicted),
    })
    if any(isinstance(f, CpmFitError) for f in fits) or any(r.status != "ok" for r in reports):
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_predict(args) -> int:
    fit_cfg, pred_cfg, extras = build_configs(args)
    cpm = _load_map(args.input, extras["normalize"])
    target = args.target

    if find_speedline(cpm, target) is not None:
        if len(cpm.speedlines) < 3:
            print("error: hold-out prediction needs >= 3 speedlines", file=sys.stderr)
            return EXIT_ERROR
        report = holdout_predict(cpm, target, fit_cfg, pred_cfg)
        artifacts = {
            "report.csv": export_report([report], "csv", pred_cfg.eval_mode),
            "report.json": export_report([report], "json", pred_cfg.eval_mode),
        }
        if report.status == "ok":
            artifacts["curves.svg"] = export_curve_svg(
                cpm.speedlines, [(report.target_speed, report.predicted_beta)])
        _write_artifacts(args.out, artifacts)
        return EXIT_OK if report.status == "ok" and not report.failed_fits else EXIT_PARTIAL

    # Pure prediction: no held-out measurements, hence no metrics.
    fits = fit_each_line(cpm.speedlines, fit_cfg)
    failed = {"target_speed": target, "status": "FAILED", "no_ground_truth": True}
    fit_failures = [{"speed": line.speed, "reason": str(fit)}
                    for line, fit in zip(cpm.speedlines, fits)
                    if isinstance(fit, CpmFitError)]
    if fit_failures:
        _write_artifacts(args.out, {"prediction.json": json_text(
            dict(failed, fit_failures=fit_failures))})
        return EXIT_PARTIAL
    model = fit_beta_polynomials(fit_table(zip(cpm.speedlines, fits)), pred_cfg)
    try:
        beta, repair = predict_beta(model, target)
    except InvalidPredictionError as exc:
        _write_artifacts(args.out, {"prediction.json": json_text(
            dict(failed, raw_values=list(exc.raw_values or [])))})
        return EXIT_PARTIAL
    payload = {
        "target_speed": target,
        "status": "OK",
        "no_ground_truth": True,
        "beta": dict(zip(BETA_FIELDS, (float(v) for v in beta.as_array()))),
        "flags": {"cur_clamped": repair.cur_clamped,
                  "degree_reduced": repair.degree_reduced},
    }
    pts = sample_curve(beta, 200)
    _write_artifacts(args.out, {
        "prediction.json": json_text(payload),
        "prediction_curve.csv": csv_text(
            ["m_dot", "pi"], [[_fmt(p.m_dot), _fmt(p.pi)] for p in pts]),
        "curves.svg": export_curve_svg(cpm.speedlines, [(target, beta)]),
    })
    return EXIT_OK


def cmd_bench(args) -> int:
    fit_cfg, _, extras = build_configs(args)
    cpm = _load_map(args.input, extras["normalize"])
    repeats = extras["repeats"]
    rows = []
    summary = []
    failures = 0
    bases = [fit_cfg.seed + 7919 * r for r in range(repeats)]
    for strategy in InitStrategy:
        # runs[r][i]: repeat r of line i, seeded from the repeat's base seed.
        runs = [fit_each_line(cpm.speedlines, replace(fit_cfg, init_strategy=strategy, seed=b))
                for b in bases]
        line_objs = []
        finals = {"rmse": [], "max_err": [], "ortho": []}
        for i, line in enumerate(cpm.speedlines):
            objs = []
            for r in range(repeats):
                result = runs[r][i]
                if isinstance(result, CpmFitError):
                    failures += 1
                    rows.append([strategy.value, _fmt(line.speed), r, result.seed,
                                 "", "", "", "FAILED"])
                    continue
                m, pi = line.m_array(), line.pi_array()
                truth, pred, _ = _clamped_prediction(result.beta, m, pi, fit_cfg.mode)
                rm = _pointwise_summary(truth, pred, MetricKind.RMSE).mean
                max_err = float(np.max(np.abs(truth - pred)))
                ortho = ortho_sum(result.beta, (m, pi))
                rows.append([strategy.value, _fmt(line.speed), r, result.seed,
                             _fmt(rm), _fmt(max_err), _fmt(ortho), "OK"])
                finals["rmse"].append(rm)
                finals["max_err"].append(max_err)
                finals["ortho"].append(ortho)
                objs.append(result.objective)
            line_objs.append(objs)
        sds = [np.std(v, ddof=1) for v in line_objs if len(v) > 1]
        obj_sd = _fmt(float(np.mean(sds))) if repeats > 1 and sds else ""
        for key, vals in finals.items():
            if vals:
                summary.append([strategy.value, key, len(vals),
                                _fmt(float(np.median(vals))), _fmt(float(np.mean(vals))),
                                _fmt(float(np.max(vals))), obj_sd,
                                "" if repeats > 1 else "sd_undefined"])
    _write_artifacts(args.out, {
        "bench.csv": csv_text(
            ["strategy", "speed", "repeat", "seed", "rmse", "max_err", "ortho", "status"],
            rows),
        "bench_summary.csv": csv_text(
            ["strategy", "quantity", "n", "median", "mean", "max", "objective_sd", "flags"],
            summary),
    })
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmfit",
        description="Fit compressor speedlines with superellipses and predict "
                    "unknown speedlines from the parameter trend over speed.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="input CSV (header: speed,m_dot,pi)")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--metric", choices=_values(FIT_METRICS))
        p.add_argument("--init", choices=_values(InitStrategy))
        p.add_argument("--solver", choices=_values(LocalSolver))
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--mode", choices=_values(EvalMode))
        p.add_argument("--target", type=float, default=None)
        p.add_argument("--repeats", type=int, default=None)

    for name, fn in (("fit", cmd_fit), ("crossval", cmd_crossval),
                     ("predict", cmd_predict), ("bench", cmd_bench)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "predict" and (args.target is None or not math.isfinite(args.target)):
        print("error: predict requires a finite --target", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except (OSError, CpmFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
