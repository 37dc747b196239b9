"""Optimizers and the speedline fitting pipeline."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cpmfit import optimize
from cpmfit.model import CUR_MIN
from cpmfit.optimize import (
    NM_STEP,
    NM_STEP_FLOOR,
    PENALTY,
    _de_start,
    _de_trials,
    make_objective_batch,
    quasi_newton,
)

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

    @settings(max_examples=100, deadline=None)
    @given(npop=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           collapsed=st.integers(-1, 4))
    def test_trial_step(self, npop, seed, collapsed):
        # Members anywhere in the box, so mutants leave it by up to 80% of
        # the span and need the reflection; one coordinate may be collapsed.
        rng = np.random.default_rng(seed)
        pop = rng.uniform(BOX5.lower, BOX5.upper, size=(npop, 5))
        if collapsed >= 0:
            pop[:, collapsed] = pop[0, collapsed]
        trials, donors, cross = _de_trials(rng, pop, BOX5.lower, BOX5.upper)
        assert trials.shape == pop.shape and donors.shape == (npop, 3)
        for i, row in enumerate(donors):
            assert len(set(row.tolist())) == 3 and i not in row
            assert all(0 <= r < npop for r in row)
        assert np.all(cross.any(axis=1))
        assert np.array_equal(trials[~cross], pop[~cross])
        assert np.all((trials >= BOX5.lower) & (trials <= BOX5.upper))

    def test_final_population(self):
        cfg = replace(FitConfig(), de_max_iters=30)
        pop = np.full((cfg.de_population, 5), np.nan)
        x = differential_evolution(sphere, BOX5, cfg, seed=4, final_population=pop)
        assert all(BOX5.contains(row) for row in pop)
        assert any(np.array_equal(x, row) for row in pop)
        assert sphere(x) == min(sphere(row) for row in pop)
        np.testing.assert_array_equal(x, differential_evolution(sphere, BOX5, cfg, seed=4))


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

    def test_simplex_from_collapsed_population(self, monkeypatch):
        # A DE population collapsed in coordinate 2 still gives that
        # coordinate a positive first step, and NM moves along it.
        target = np.array([1.0, 1, 1, 1, 2.0])
        f = lambda x: float(np.sum((np.asarray(x) - target) ** 2))
        bounds = Bounds(np.array([-4.0, -4, -4, -4, 1.05]), np.array([4.0, 4, 4, 4, 4.0]))
        pop = target + np.random.default_rng(3).uniform(-1e-4, 1e-4, size=(15, 5))
        pop[:, 2] = 0.5

        def fake_de(f, bounds, cfg, seed, f_batch=None, final_population=None):
            final_population[...] = pop
            return pop[0].copy()

        monkeypatch.setattr(optimize, "differential_evolution", fake_de)
        x0, step = _de_start(f, bounds, FitConfig(), None)
        np.testing.assert_array_equal(x0, pop[0])
        assert step[2] == NM_STEP_FLOOR * bounds.span()[2]
        assert np.all(step <= NM_STEP * bounds.span())
        x = nelder_mead(f, x0, bounds, FitConfig(), step)
        np.testing.assert_allclose(x, target, atol=1e-6)

    def test_de_hand_off_saves_evaluations(self, monkeypatch):
        # On a noiseless line, fit_speedline's NM stage after DE needs far
        # fewer objective calls than the same start with the default 5% step.
        line = speedline_from_beta(BetaVector(0.1, 2.5, 0.9, 1.2, 3.0), 20, 400.0)
        runs = []

        def counted(f, x0, bounds, cfg, step=None):
            calls = []
            x = nelder_mead(lambda x: calls.append(x) or f(x), x0, bounds, cfg, step)
            runs.append((len(calls), f, x0, bounds, cfg))
            return x

        monkeypatch.setattr(optimize, "nelder_mead", counted)
        res = fit_speedline(line, FitConfig(seed=1))
        [(handed_off, f, x0, bounds, cfg)] = runs
        calls = []
        nelder_mead(lambda x: calls.append(x) or f(x), x0, bounds, cfg)
        assert handed_off * 4 <= len(calls)
        assert res.objective < 1e-6


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

    def test_residual_sd_is_not_fittable(self):
        # Its loss is flat along a common shift of pi_zs and pi_ch.
        with pytest.raises(ValueError, match="residual_sd"):
            FitConfig(metric=MetricKind.RESIDUAL_SD)

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
            for strategy in InitStrategy:
                for solver in LocalSolver:
                    res = fit_speedline(line, FitConfig(seed=i, init_strategy=strategy,
                                                        local_solver=solver, local_max_iters=100))
                    assert isinstance(res.beta, BetaVector)  # constructor enforces invariants
                    assert default_bounds(line.points).contains(res.beta.as_array())

    def test_quasi_newton_solver_path(self):
        beta = BetaVector(0.1, 2.5, 0.9, 1.2, 3.0)
        line = speedline_from_beta(beta, 20, 400.0)
        res = fit_speedline(line, FitConfig(
            seed=4, local_solver=LocalSolver.QUASI_NEWTON))
        assert res.objective < 1e-3
