"""Workload definitions: seeded inputs, one timed operation, output checks, quality.

Every workload builds its inputs from the workload seed alone and calls
cpmfit only through the public functions of its modules.  A workload object
exposes:

- ``n_distinct``: how many distinct operations its inputs define; the closed
  loop cycles through them in order, so a repeat re-runs identical work;
- ``run_op(i)``: the timed call for operation ``i``; returns its raw result;
- ``check(i, result)``: a list of failed output checks (empty when correct);
- ``digest(i, result)``: a string that must be identical for operation ``i``
  across runs with the same seed;
- ``quality(results)``: fit-quality figures, as {name: (value, unit)}, over
  the first correct result of each distinct operation.  Pressure errors
  are in the CLI's min-max normalized units, hence unit "1".
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

import numpy as np

from cpmfit import cli, optimize
from cpmfit.model import CUR_MIN, BetaVector, OperatingPoint, Speedline, sample_curve

# The header `cpmfit bench` writes; tests/test_cli.py pins the same one.
BENCH_HEADER = ["strategy", "speed", "repeat", "seed", "rmse", "max_err", "ortho", "status"]
CROSSVAL_ARTIFACTS = ("report.csv", "report.json", "summary.csv",
                      "beta_nodes.csv", "beta_poly.csv", "curves.svg")

# Coefficients of the 4-line crossval map: ascending powers of speed
# normalized to [0, 1], one entry per beta component.
MAP_COEFFS = (
    (0.10, 0.10),        # m_zs
    (2.0, 0.8, -0.2),    # pi_zs
    (0.95, 0.25),        # m_ch
    (1.1, 0.3, 0.1),     # pi_ch
    (2.0, 0.4),          # cur
)
MAP_SPEEDS = (250.0, 350.0, 450.0, 550.0)

# The generating shapes are a fixed panel drawn once, as in the round-trip
# acceptance test; the workload seed draws the noise and the solver seeds.
# Different shapes take very different numbers of DE generations, so drawing
# them per seed would make the work of a run depend on the seed.
PANEL_SEED = 1234

# A tiny fit budget, used only by the harness self-test.
SHRUNK_FIT = {"de_population": 8, "de_max_iters": 20, "pso_particles": 8,
              "pso_iters": 5, "local_max_iters": 300}


def sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def random_beta(rng) -> BetaVector:
    """Beta drawn from a default_bounds-style box around a unit-ish data window."""
    m_lo = rng.uniform(0.0, 0.3)
    m_hi = m_lo + rng.uniform(0.4, 1.0)
    pi_lo = rng.uniform(1.0, 1.5)
    pi_hi = pi_lo + rng.uniform(0.5, 2.0)
    return BetaVector(m_lo, pi_hi, m_hi, pi_lo, rng.uniform(2.0, 5.0))


def speedline_from_beta(beta, n_points, speed, noise=0.0, rng=None) -> Speedline:
    """Points sampled from the curve of a known beta, with optional pi noise."""
    pts = sample_curve(beta, n_points)
    m = np.array([p.m_dot for p in pts])
    pi = np.array([p.pi for p in pts])
    if noise:
        pi = pi + rng.normal(0.0, noise, size=pi.shape)
    order = np.argsort(m)
    return Speedline(speed, tuple(OperatingPoint(float(m[i]), float(pi[i])) for i in order))


def write_map_csv(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("speed,m_dot,pi\n")
        for line in lines:
            for p in line.points:
                fh.write(f"{line.speed!r},{p.m_dot!r},{p.pi!r}\n")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class FitLines:
    """`fit_speedline` with the default FitConfig on 12 lines.

    The lines interleave 10/20/40 points; six are noiseless and six carry pi
    noise 0.02 drawn from the seed, which also sets each fit's solver seed.
    """

    name = "fit_lines"
    SIZES = (10, 20, 40)
    NOISES = (0.0, 0.02)

    def __init__(self, seed: int, workdir: str, shrink: bool = False):
        panel = np.random.default_rng(PANEL_SEED)
        rng = np.random.default_rng([seed, 1])
        self.lines, self.betas, self.cfgs, self.noises, self.ref_obj = [], [], [], [], []
        for k in range(12):
            beta = random_beta(panel)
            if shrink and k != 3:  # the self-test keeps one noisy 10-point line
                continue
            n = self.SIZES[k % 3]
            noise = self.NOISES[(k // 3) % 2]
            line = speedline_from_beta(beta, n, 300.0, noise, rng)
            cfg = optimize.FitConfig(seed=sub_seed(seed, 1, k),
                                     **(SHRUNK_FIT if shrink else {}))
            self.lines.append(line)
            self.betas.append(beta)
            self.cfgs.append(cfg)
            self.noises.append(noise)
            self.ref_obj.append(optimize.objective(
                beta, (line.m_array(), line.pi_array()), cfg.metric, cfg.mode))
        self.n_distinct = len(self.lines)

    def run_op(self, i: int):
        k = i % self.n_distinct
        return optimize.fit_speedline(self.lines[k], self.cfgs[k])

    def check(self, i: int, result) -> list[str]:
        k = i % self.n_distinct
        x = result.beta.as_array()
        bounds = optimize.default_bounds(self.lines[k].points)
        errors = []
        if not (np.all(np.isfinite(x)) and x[2] > x[0] and x[1] > x[3] and x[4] >= CUR_MIN):
            errors.append(f"line {k}: beta violates the invariants: {x.tolist()}")
        if not bounds.contains(x, tol=1e-9):
            errors.append(f"line {k}: beta outside default_bounds: {x.tolist()}")
        if not (math.isfinite(result.objective) and result.objective < optimize.PENALTY):
            errors.append(f"line {k}: objective {result.objective!r} is not finite "
                          f"and below PENALTY")
        return errors

    def digest(self, i: int, result) -> str:
        return json.dumps([float(v) for v in result.beta.as_array()])

    def quality(self, results: dict) -> dict:
        recovered, noiseless, ratios = 0, 0, []
        for k, res in sorted(results.items()):
            if self.noises[k] == 0.0:
                truth = self.betas[k].as_array()
                rel = np.max(np.abs(res.beta.as_array() - truth) / np.abs(truth))
                noiseless += 1
                recovered += int(rel < 0.01 and res.objective < 1e-6)
            else:
                ratios.append(res.objective / self.ref_obj[k])
        out = {}
        if noiseless:
            out["fit_recovered_ratio"] = (recovered / noiseless, "ratio")
        if ratios:
            out["fit_objective_ratio_p50"] = (statistics.median(ratios), "ratio")
        return out


class _CliWorkload:
    """Shared plumbing of the in-process CLI workloads."""

    def __init__(self, seed: int, workdir: str, shrink: bool):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.csv_path = os.path.join(workdir, "map.csv")
        self.extra_args = []
        if shrink:
            cfg_path = os.path.join(workdir, "config.json")
            with open(cfg_path, "w") as fh:
                json.dump(SHRUNK_FIT, fh)
            self.extra_args = ["--config", cfg_path]
        self.n_distinct = 1

    def run_op(self, i: int):
        out = os.path.join(self.workdir, f"op{i}")
        rc = cli.main(self.argv(out) + self.extra_args)
        return rc, out


class CrossvalCli(_CliWorkload):
    """`cpmfit crossval` on a 4-line polynomial map, 15 points a line, pi noise 0.005."""

    name = "crossval_cli"
    NOISE = 0.005

    def __init__(self, seed: int, workdir: str, shrink: bool = False):
        super().__init__(seed, workdir, shrink)
        rng = np.random.default_rng([seed, 2])
        speeds = np.asarray(MAP_SPEEDS)
        s = (speeds - speeds.min()) / (speeds.max() - speeds.min())
        self.lines = []
        for sp, sn in zip(speeds, s):
            beta = BetaVector(*(float(np.polynomial.polynomial.polyval(sn, c))
                                for c in MAP_COEFFS))
            self.lines.append(speedline_from_beta(beta, 15, float(sp), self.NOISE, rng))
        write_map_csv(self.csv_path, self.lines)

    def argv(self, out: str) -> list[str]:
        return ["crossval", self.csv_path, "--seed", str(self.seed), "--out", out]

    def check(self, i: int, result) -> list[str]:
        rc, out = result
        if rc != 0:
            return [f"crossval exited {rc}"]
        missing = [a for a in CROSSVAL_ARTIFACTS if not os.path.isfile(os.path.join(out, a))]
        if missing:
            return [f"crossval artifacts missing: {missing}"]
        with open(os.path.join(out, "report.json")) as fh:
            rows = json.load(fh)
        errors = []
        if len(rows) != len(self.lines):
            errors.append(f"report.json has {len(rows)} rows, want {len(self.lines)}")
        bad = [r.get("index") for r in rows if r.get("status") != "OK"]
        if bad:
            errors.append(f"report.json rows not OK: {bad}")
        return errors

    def digest(self, i: int, result) -> str:
        _, out = result
        return ":".join(sha256_file(os.path.join(out, a)) for a in ("report.csv", "report.json"))

    def quality(self, results: dict) -> dict:
        with open(os.path.join(results[0][1], "report.json")) as fh:
            rows = json.load(fh)
        out = {}
        for kind, name in (("INTERPOLATION", "loo_interp_rmse"),
                           ("EXTRAPOLATION", "loo_extrap_rmse")):
            vals = [r["rmse_mean"] for r in rows if r["kind"] == kind]
            if vals:
                out[name] = (statistics.fmean(vals), "1")
        return out


class BenchRmseCli(_CliWorkload):
    """`cpmfit bench --metric rmse --repeats 1` on one 15-point line, pi noise 0.01."""

    name = "bench_rmse_cli"
    NOISE = 0.01
    STRATEGIES = ("none", "pso", "de")

    def __init__(self, seed: int, workdir: str, shrink: bool = False):
        super().__init__(seed, workdir, shrink)
        rng = np.random.default_rng([seed, 3])
        self.beta = random_beta(np.random.default_rng([PANEL_SEED, 3]))
        self.line = speedline_from_beta(self.beta, 15, 300.0, self.NOISE, rng)
        write_map_csv(self.csv_path, [self.line])

    def argv(self, out: str) -> list[str]:
        return ["bench", self.csv_path, "--metric", "rmse", "--repeats", "1",
                "--seed", str(self.seed), "--out", out]

    def check(self, i: int, result) -> list[str]:
        rc, out = result
        if rc != 0:
            return [f"bench exited {rc}"]
        path = os.path.join(out, "bench.csv")
        if not os.path.isfile(path):
            return ["bench.csv missing"]
        rows = read_csv(path)
        errors = []
        if not rows or rows[0] != BENCH_HEADER:
            errors.append(f"bench.csv header {rows[:1]} != {BENCH_HEADER}")
        body = rows[1:]
        if len(body) != len(self.STRATEGIES):
            errors.append(f"bench.csv has {len(body)} rows, want {len(self.STRATEGIES)}")
        bad = [r[0] for r in body if r[-1] != "OK"]
        if bad:
            errors.append(f"bench.csv rows not OK: {bad}")
        if not os.path.isfile(os.path.join(out, "bench_summary.csv")):
            errors.append("bench_summary.csv missing")
        return errors

    def digest(self, i: int, result) -> str:
        return sha256_file(os.path.join(result[1], "bench.csv"))

    def quality(self, results: dict) -> dict:
        header, *rows = read_csv(os.path.join(results[0][1], "bench_summary.csv"))
        strategy, quantity, median = (header.index(c) for c in ("strategy", "quantity", "median"))
        return {f"bench_rmse_p50.{r[strategy]}": (float(r[median]), "1")
                for r in rows if r[quantity] == "rmse"}


WORKLOADS = {w.name: w for w in (FitLines, CrossvalCli, BenchRmseCli)}
