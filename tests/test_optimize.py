"""Optimizers and the speedline fitting pipeline."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_beta, speedline_from_beta
from cpmfit import (
    BetaVector,
    Bounds,
    DegenerateInputError,
    EvalMode,
    FitConfig,
    FitFailureError,
    InitStrategy,
    LocalSolver,
    MetricKind,
    OperatingPoint,
    Speedline,
    default_bounds,
    differential_evolution,
    evaluate_prediction,
    fit_speedline,
    nelder_mead,
    objective,
    particle_swarm,
    sample_curve,
)
from cpmfit.model import CUR_MIN
from cpmfit.optimize import PENALTY, make_objective_batch, quasi_newton

BOX5 = Bounds(np.array([-5.0, -5, -5, -5, 1.05]), np.array([5.0, 5, 5, 5, 5.0]))


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def rows(x):
    """x plus three infeasible variants: bad ordering, cur < CUR_MIN, a NaN."""
    bad_order, low_cur, nan = x.copy(), x.copy(), x.copy()
    bad_order[2] = bad_order[0] - 0.1
    low_cur[4] = CUR_MIN - 0.5
    nan[1] = np.nan
    return np.array([x, bad_order, low_cur, nan])


class TestObjective:
    def test_on_curve_ortho_zero(self, quarter_circle):
        pts = sample_curve(quarter_circle, 10)
        assert objective(quarter_circle, pts, MetricKind.ORTHO) == pytest.approx(0.0, abs=1e-12)

    def test_penalty_for_bad_ordering(self, quarter_circle):
        pts = sample_curve(quarter_circle, 10)
        assert objective([1.0, 1.0, 0.0, 0.0, 2.0], pts) >= PENALTY

    def test_two_unit_distances(self, quarter_circle):
        pts = [OperatingPoint(0.0, 0.0), OperatingPoint(2.0, 0.0)]
        assert objective(quarter_circle, pts, MetricKind.ORTHO) == pytest.approx(2.0, abs=1e-9)


    def test_non_ortho_matches_evaluate_prediction(self):
        # The scalar objective evaluates one metric on its own; it must equal
        # the full evaluation bit for bit, with undefined values as PENALTY.
        # Every row of the batch objective equals the scalar objective of
        # that row bit for bit, for every metric, infeasible rows included.
        rng = np.random.default_rng(77)
        cases = []
        for _ in range(60):
            beta = random_beta(rng)
            line = speedline_from_beta(beta, 15, 300.0, noise=0.05, rng=rng)
            # Perturbed beta, so some points fall outside its domain; down to
            # one point, where the residual SD is undefined.
            x = beta.as_array() + rng.normal(0.0, 0.1, 5) * [1, 1, 1, 1, 0]
            cases.append((x, line.points[:int(rng.integers(1, 16))]))
        # Every truth value at or below the MAPE threshold: MAPE is undefined.
        zero_pi = [OperatingPoint(m, 0.0) for m in (0.2, 0.5, 0.8)]
        cases.append((np.array([0.0, 1.0, 1.0, 0.0, 2.0]), zero_pi))
        n_out_of_domain = n_undefined = 0
        for x, pts in cases:
            for mode in (EvalMode.PRESSURE, EvalMode.MASSFLOW):
                pm = evaluate_prediction(BetaVector.from_array(x), pts, mode)
                n_out_of_domain += pm.out_of_domain > 0
                for metric in (MetricKind.RMSE, MetricKind.MAPE, MetricKind.RESIDUAL_SD):
                    want = pm[metric].mean
                    n_undefined += not np.isfinite(want)
                    want = want if np.isfinite(want) else PENALTY
                    assert objective(x, pts, metric, mode) == want
                for metric in MetricKind:
                    got = make_objective_batch(pts, metric, mode)(rows(x))
                    assert got.tolist() == [objective(r, pts, metric, mode) for r in rows(x)]
        assert n_out_of_domain > 0
        assert n_undefined > 0


class TestDifferentialEvolution:
    def test_sphere(self):
        cfg = FitConfig()
        x = differential_evolution(sphere, BOX5, cfg, seed=0)
        # The last component is bounded away from 0; its minimum sits on that face.
        np.testing.assert_allclose(x[:4], 0.0, atol=1e-3)
        assert x[4] == pytest.approx(1.05, abs=1e-3)

    def test_constant_function_terminates_in_bounds(self):
        cfg = replace(FitConfig(), de_max_iters=20)
        x = differential_evolution(lambda x: 1.0, BOX5, cfg, seed=3)
        assert BOX5.contains(x)

    def test_determinism(self):
        cfg = FitConfig()
        a = differential_evolution(sphere, BOX5, cfg, seed=9)
        b = differential_evolution(sphere, BOX5, cfg, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rosenbrock_median(self):
        # Threshold frozen from a reference run of this implementation
        # (20 seeds, median 8.0e-4, max 4.0).
        def rosen(x):
            x = np.asarray(x)
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))

        bounds = Bounds(np.array([-2.0, -2, -2, -2, 1.05]), np.array([2.0, 2, 2, 2, 2.0]))
        cfg = FitConfig()
        vals = sorted(rosen(differential_evolution(rosen, bounds, cfg, seed=s))
                      for s in range(20))
        assert float(np.median(vals)) < 1e-2


class TestParticleSwarm:
    def test_sphere(self):
        cfg = FitConfig()
        x = particle_swarm(sphere, BOX5, cfg, seed=0)
        np.testing.assert_allclose(x[:4], 0.0, atol=1e-2)
        assert x[4] == pytest.approx(1.05, abs=1e-2)

    def test_single_particle_zero_iters(self):
        cfg = replace(FitConfig(), pso_particles=1, pso_iters=1)
        rng = np.random.default_rng(5)
        expected = rng.uniform(BOX5.lower, BOX5.upper, size=(1, 5))[0]
        # With one particle and a huge constant objective the global best
        # stays at the seeded initial position.
        x = particle_swarm(lambda x: 1.0, BOX5, cfg, seed=5)
        np.testing.assert_array_equal(x, expected)

    def test_determinism(self):
        cfg = FitConfig()
        a = particle_swarm(sphere, BOX5, cfg, seed=2)
        b = particle_swarm(sphere, BOX5, cfg, seed=2)
        np.testing.assert_array_equal(a, b)


class TestNelderMead:
    def test_shifted_quadratic(self):
        target = np.array([1.0, 1, 1, 1, 2.0])
        f = lambda x: float(np.sum((np.asarray(x) - target) ** 2))
        bounds = Bounds(np.array([-4.0, -4, -4, -4, 1.05]), np.array([4.0, 4, 4, 4, 4.0]))
        x = nelder_mead(f, np.array([0.0, 0, 0, 0, 3.0]), bounds, FitConfig())
        np.testing.assert_allclose(x, target, atol=1e-6)

    def test_start_at_minimum_returns_quickly(self):
        f = lambda x: float(np.sum(np.asarray(x) ** 2))
        bounds = Bounds(np.array([-1.0, -1, -1, -1, 1.05]), np.array([1.0, 1, 1, 1, 3.0]))
        x0 = np.array([0.0, 0, 0, 0, 1.05])
        x = nelder_mead(f, x0, bounds, FitConfig())
        assert f(x) <= f(x0) + 1e-15

    def test_quasi_newton_quadratic(self):
        f = lambda x: float(np.sum((np.asarray(x) - 1.0) ** 2))
        bounds = Bounds(np.array([-4.0, -4, -4, -4, 1.05]), np.array([4.0, 4, 4, 4, 4.0]))
        x = quasi_newton(f, np.zeros(5) + 0.5, bounds, FitConfig())
        np.testing.assert_allclose(x, [1, 1, 1, 1, 1.05], atol=1e-4)


class TestDefaultBounds:
    def test_stated_rule(self):
        pts = [OperatingPoint(0.2, 1.0), OperatingPoint(0.5, 1.7), OperatingPoint(0.8, 2.0)]
        b = default_bounds(pts)
        np.testing.assert_allclose(b.lower, [-0.1, 2.0, 0.8, 0.5, 1.05])
        np.testing.assert_allclose(b.upper, [0.2, 2.5, 1.1, 1.0, 20.0])

    def test_degenerate_span(self):
        flat = [OperatingPoint(0.1, 1.0), OperatingPoint(0.2, 1.0), OperatingPoint(0.3, 1.0)]
        with pytest.raises(DegenerateInputError):
            default_bounds(flat)

    def test_true_beta_within_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            beta = random_beta(rng)
            line = speedline_from_beta(beta, 15, 300.0)
            b = default_bounds(line.points)
            assert b.contains(beta.as_array())


class TestFitSpeedline:
    def test_noiseless_roundtrip(self):
        beta = BetaVector(0.1, 2.5, 0.9, 1.2, 3.0)
        line = speedline_from_beta(beta, 20, 400.0)
        res = fit_speedline(line, FitConfig(seed=1))
        rel = np.abs(res.beta.as_array() - beta.as_array()) / np.abs(beta.as_array())
        assert np.max(rel) < 0.01
        assert res.objective < 1e-6

    def test_three_points_underdetermined(self):
        beta = BetaVector(0.1, 2.5, 0.9, 1.2, 3.0)
        line = speedline_from_beta(beta, 3, 400.0)
        res = fit_speedline(line, FitConfig(seed=2))
        assert res.underdetermined
        assert res.objective < 1e-8

    def test_degenerate_pi_span(self):
        pts = tuple(OperatingPoint(0.1 * i, 1.0) for i in range(1, 6))
        with pytest.raises(DegenerateInputError):
            fit_speedline(Speedline(100.0, pts), FitConfig(seed=0))

    def test_determinism(self):
        beta = BetaVector(0.2, 2.0, 1.0, 1.1, 2.5)
        line = speedline_from_beta(beta, 12, 350.0)
        cfg = FitConfig(seed=42)
        a = fit_speedline(line, cfg)
        b = fit_speedline(line, cfg)
        assert a == b

    def test_stage_trace_non_increasing(self):
        beta = BetaVector(0.15, 2.2, 1.1, 1.05, 2.2)
        rng = np.random.default_rng(8)
        line = speedline_from_beta(beta, 15, 300.0, noise=0.02, rng=rng)
        for strategy in InitStrategy:
            for solver in LocalSolver:
                res = fit_speedline(line, FitConfig(seed=7, init_strategy=strategy,
                                                    local_solver=solver))
                objs = [v for _, v in res.stage_trace]
                assert all(a >= b - 1e-15 for a, b in zip(objs, objs[1:]))
                assert len(res.stage_trace) == 2
                assert res.used_fallback is False

    def test_undefined_objective_is_fit_failure(self):
        # Every pi is below the MAPE threshold, so MAPE is undefined for
        # every candidate and each one scores PENALTY.
        pts = tuple(OperatingPoint(m, p) for m, p in
                    zip((0.1, 0.2, 0.3, 0.4), (3e-13, 2e-13, 1e-13, 5e-14)))
        for solver in LocalSolver:
            cfg = FitConfig(metric=MetricKind.MAPE, local_solver=solver)
            with pytest.raises(FitFailureError) as exc:
                fit_speedline(Speedline(300.0, pts), cfg)
            assert exc.value.best_objective == PENALTY

    def test_result_beta_always_valid(self):
        rng = np.random.default_rng(13)
        for i in range(5):
            beta = random_beta(rng)
            line = speedline_from_beta(beta, 10, 300.0, noise=0.05, rng=rng)
            res = fit_speedline(line, FitConfig(seed=i))
            assert isinstance(res.beta, BetaVector)  # constructor enforces invariants

    def test_quasi_newton_solver_path(self):
        beta = BetaVector(0.1, 2.5, 0.9, 1.2, 3.0)
        line = speedline_from_beta(beta, 20, 400.0)
        res = fit_speedline(line, FitConfig(
            seed=4, local_solver=LocalSolver.QUASI_NEWTON))
        assert res.objective < 1e-3
