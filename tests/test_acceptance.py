"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS line on
success (failures surface through the assertions).  The suite exercises
the fitting pipeline, the projection and conic oracles, polynomial
prediction, metric behavior on degenerate data and CLI determinism.
"""
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    brute_force_nearest_d2,
    least_squares_ortho,
    polynomial_beta_map,
    random_beta,
    speedline_from_beta,
)
from cpmfit import (
    BetaVector,
    EvalMode,
    FitConfig,
    InitStrategy,
    MetricKind,
    OperatingPoint,
    PredictionKind,
    fit_direct_conic,
    fit_speedline,
    loo_crossval,
    massflow_at,
    nearest_point_on_curve,
    conic_geometry,
    evaluate_prediction,
    group_speedlines,
    normalize_map,
    parse_map_csv,
)
from cpmfit.cli import main
from cpmfit.model import curve_xy

TCA88_PATH = os.path.join(os.path.dirname(__file__), "data", "tca88.csv")


def _report(name, detail):
    print(f"\n{name}: PASS — {detail}")


class TestRoundTripFitting:
    def test_synthetic_round_trip_100(self):
        """100 noiseless 20-point speedlines: >= 95 recovered within 1% and
        ortho < 1e-6, within a 5-minute budget."""
        rng = np.random.default_rng(1234)
        t0 = time.time()
        successes = 0
        for i in range(100):
            beta = random_beta(rng, cur_range=(2.0, 5.0))
            line = speedline_from_beta(beta, 20, 300.0)
            # 200 generations of global search suffice here; final precision
            # comes from the local refinement stage.
            res = fit_speedline(line, FitConfig(seed=i, de_max_iters=200))
            rel = np.max(np.abs(res.beta.as_array() - beta.as_array())
                         / np.abs(beta.as_array()))
            if rel < 0.01 and res.objective < 1e-6:
                successes += 1
        elapsed = time.time() - t0
        assert successes >= 95
        assert elapsed <= 300.0
        _report("round-trip fitting",
                f"{successes}/100 recovered in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def noisy_panel():
    """50 noisy 20-point lines (sigma = 0.02), each with its DE-initialized
    and its local-only fit: (line, de_result, none_result)."""
    rng = np.random.default_rng(2024)
    cfg_kwargs = dict(local_max_iters=100)
    panel = []
    for i in range(50):
        beta = random_beta(rng)
        line = speedline_from_beta(beta, 20, 300.0, noise=0.02, rng=rng)
        r_de = fit_speedline(line, FitConfig(
            seed=i, init_strategy=InitStrategy.DE, **cfg_kwargs))
        r_none = fit_speedline(line, FitConfig(
            seed=i, init_strategy=InitStrategy.NONE, **cfg_kwargs))
        panel.append((line, r_de, r_none))
    return panel


class TestGlobalInitBenefit:
    def test_de_init_beats_local_only(self, noisy_panel):
        """Noisy suite (sigma = 0.02): DE-initialized fits dominate
        local-only fits in median and maximum, maximum improved >= 30%."""
        de_objs = np.array([r_de.objective for _, r_de, _ in noisy_panel])
        none_objs = np.array([r_none.objective for _, _, r_none in noisy_panel])
        assert np.median(de_objs) <= np.median(none_objs)
        assert de_objs.max() <= none_objs.max()
        improvement = 1.0 - de_objs.max() / none_objs.max()
        assert improvement >= 0.30
        _report("global-init benefit",
                f"max objective improved {improvement:.0%} "
                f"(median {np.median(de_objs):.2e} vs {np.median(none_objs):.2e})")


class TestNoisyFitOracle:
    def test_fits_reach_least_squares_oracle(self, noisy_panel):
        """Noisy fits have no known truth; scipy's trust-region solver is
        their judge.  The DE fits of the 50-line panel, and default fits of
        30 lines with cur 1.2-15 (12 points, 5% trim, sigma = 0.01), end no
        more than 1e-6 (relative) above the oracle's objective.  The bound
        is one-sided: a start that trapped the oracle only loosens it."""
        rng = np.random.default_rng(7)
        pairs = [(line, r_de.objective) for line, r_de, _ in noisy_panel]
        for i in range(30):
            beta = random_beta(rng, cur_range=(1.2, 15.0))
            line = speedline_from_beta(beta, 12, 300.0, noise=0.01, rng=rng, trim=0.05)
            pairs.append((line, fit_speedline(line, FitConfig(seed=i)).objective))
        worst = 0.0
        for line, fitted in pairs:
            oracle = least_squares_ortho(line.points)
            worst = max(worst, fitted / oracle - 1.0)
            assert fitted <= oracle * (1.0 + 1e-6)
        _report("noisy-fit oracle",
                f"{len(pairs)} lines, worst excess over the oracle {worst:.1e}")


class TestProjectionOracle:
    def test_1000_random_projections(self):
        """Nearest-point squared distances agree with a dense parametric
        scan (1e5 samples, independently polished) within 1e-8."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            beta = random_beta(rng)
            dm = beta.m_ch - beta.m_zs
            dpi = beta.pi_zs - beta.pi_ch
            p = OperatingPoint(
                rng.uniform(beta.m_zs - 0.3 * dm, beta.m_ch + 0.3 * dm),
                rng.uniform(beta.pi_ch - 0.3 * dpi, beta.pi_zs + 0.3 * dpi))
            _, d2 = nearest_point_on_curve(beta, p)
            ref = brute_force_nearest_d2(beta, p)
            worst = max(worst, abs(d2 - ref))
            assert d2 == pytest.approx(ref, abs=1e-8)
            # Against the raw scan alone the result may only be better
            # (the scan is resolution-limited near the endpoints).
            raw = brute_force_nearest_d2(beta, p, refine=False)
            assert d2 <= raw + 1e-8
        _report("projection oracle", f"1000 pairs, worst |diff| {worst:.2e}")


def _ellipse_points(rng, n, noise=0.0):
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    cx, cy = rng.uniform(-2.0, 2.0, 2)
    rx, ry = sorted(rng.uniform(0.5, 3.0, 2), reverse=True)
    phi = rng.uniform(0.0, math.pi)
    x = cx + rx * np.cos(t) * math.cos(phi) - ry * np.sin(t) * math.sin(phi)
    y = cy + rx * np.cos(t) * math.sin(phi) + ry * np.sin(t) * math.cos(phi)
    if noise:
        x = x + rng.normal(0.0, noise, n)
        y = y + rng.normal(0.0, noise, n)
    return x, y, (cx, cy, rx, ry)


def _eig_oracle_residual(x, y):
    """Constrained algebraic least squares via dense generalized eigendecomposition."""
    D = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    S = D.T @ D
    C = np.zeros((6, 6))
    C[0, 2] = C[2, 0] = 2.0
    C[1, 1] = -1.0
    w, v = scipy.linalg.eig(S, C)
    best = None
    for i in range(6):
        if not np.isfinite(w[i].real) or abs(w[i].imag) > 1e-8:
            continue
        a = v[:, i].real
        if 4.0 * a[0] * a[2] - a[1] ** 2 <= 0.0:
            continue
        a = a / np.linalg.norm(a)
        r = float(np.sum((D @ a) ** 2))
        if best is None or r < best:
            best = r
    return best


class TestDirectConicFit:
    def test_noiseless_geometry(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, y, (cx, cy, rx, ry) = _ellipse_points(rng, 30)
            conic = fit_direct_conic((x, y))
            gx, gy, major, minor, _ = conic_geometry(conic)
            assert gx == pytest.approx(cx, abs=1e-8)
            assert gy == pytest.approx(cy, abs=1e-8)
            assert major == pytest.approx(rx, abs=1e-8)
            assert minor == pytest.approx(ry, abs=1e-8)

    def test_noisy_residual_near_oracle(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            x, y, _ = _ellipse_points(rng, 40, noise=0.01)
            conic = fit_direct_conic((x, y))
            mine = conic.algebraic_residual((x, y))
            oracle = _eig_oracle_residual(x, y)
            worst = max(worst, mine / oracle)
            assert mine <= 1.10 * oracle
        _report("direct conic fit",
                f"noiseless geometry at 1e-8; worst residual ratio {worst:.6f}")


class TestPolynomialPrediction:
    def test_loo_interior_exactness(self, default_poly_map):
        """LOO over a 7-speedline map whose parameters follow low-degree
        polynomial laws: every interior prediction is near-exact."""
        reports, _ = loo_crossval(default_poly_map, FitConfig(seed=0))
        interior = [r for r in reports if r.kind is PredictionKind.INTERPOLATION]
        assert len(interior) == 5
        worst_rmse = worst_ortho = 0.0
        for r in interior:
            assert r.status == "ok"
            rmse = r.metrics[EvalMode.PRESSURE][MetricKind.RMSE].mean
            ortho = r.metrics[EvalMode.PRESSURE][MetricKind.ORTHO].mean
            worst_rmse = max(worst_rmse, rmse)
            worst_ortho = max(worst_ortho, ortho)
            assert rmse < 1e-4
            assert ortho < 1e-6
        _report("polynomial prediction",
                f"5 interior speeds, worst RMSE {worst_rmse:.2e}, "
                f"worst ortho {worst_ortho:.2e}")


class TestMeasuredMapReproduction:
    @pytest.mark.skipif(not os.path.exists(TCA88_PATH),
                        reason="measured turbocharger map not supplied")
    def test_tca88_interpolation_and_extrapolation(self):
        with open(TCA88_PATH) as fh:
            records = parse_map_csv(fh.read())
        cpm = group_speedlines(records, map_id="tca88")
        cpm, _ = normalize_map(cpm)
        reports, _ = loo_crossval(cpm, FitConfig(seed=0))
        by_speed = {round(r.target_speed): r for r in reports}
        for speed in (300, 350, 450, 475, 525):
            r = by_speed[speed]
            assert r.kind is PredictionKind.INTERPOLATION
            assert r.metrics[EvalMode.PRESSURE][MetricKind.RMSE].mean <= 0.12
        low = by_speed[250]
        assert low.kind is PredictionKind.EXTRAPOLATION
        assert low.metrics[EvalMode.PRESSURE][MetricKind.ORTHO].mean >= 1e3
        _report("measured map reproduction", "interpolation and extrapolation rows")


class TestMapeInstability:
    def test_relative_metric_divergence(self):
        """Near-zero truth values: MAPE explodes past 100% while the
        orthogonal distance stays below 0.01."""
        beta = BetaVector(0.0, 1.0, 1.0, 0.0, 3.0)
        curve_pi = np.linspace(2e-4, 1e-3, 8)
        pts = [OperatingPoint(massflow_at(beta, float(c)), float(c) / 3.0)
               for c in curve_pi]
        pm = evaluate_prediction(beta, pts, EvalMode.PRESSURE)
        mape = pm[MetricKind.MAPE].mean
        ortho = pm[MetricKind.ORTHO].mean
        assert mape > 100.0
        assert ortho < 0.01
        _report("relative-metric instability",
                f"MAPE {mape:.0f}% with ortho {ortho:.2e}")


class TestCliDeterminism:
    def test_crossval_byte_identical(self, tmp_path):
        cpm = polynomial_beta_map([300, 400, 500], {
            0: (0.10, 0.10), 1: (2.0, 0.8, -0.2), 2: (0.95, 0.25),
            3: (1.1, 0.3, 0.1), 4: (3.0, 0.5)}, n_points=8)
        src = tmp_path / "map.csv"
        rows = ["speed,m_dot,pi"]
        for sl in cpm.speedlines:
            rows.extend(f"{sl.speed!r},{p.m_dot!r},{p.pi!r}" for p in sl.points)
        src.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"de_max_iters": 150, "local_max_iters": 2000}))

        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            rc = main(["crossval", str(src), "--config", str(cfg),
                       "--out", str(out), "--seed", "3"])
            assert rc == 0
            outs.append(out)
        for name in ("report.csv", "report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        _report("CLI determinism", "report.csv and report.json byte-identical")
