"""Error metrics: RMSE, MAPE, residual SD, orthogonal distance, evaluation."""
import math

import numpy as np
import pytest

from conftest import brute_force_nearest_d2, golden_nearest_d2, point_near_box, random_beta
from cpmfit import (
    BetaVector,
    EvalMode,
    MetricError,
    MetricKind,
    OperatingPoint,
    UndefinedMetricError,
    evaluate_prediction,
    mape,
    nearest_point_on_curve,
    ortho_sum,
    residual_sd,
    rmse,
    sample_curve,
)
from cpmfit.metrics import _ortho_d2_batch


class TestRmse:
    def test_identity(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_computed(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(25 / 2), rel=1e-12)

    def test_single_point(self):
        assert rmse([1], [4]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            rmse([1, 2], [1])

    def test_empty(self):
        with pytest.raises(MetricError):
            rmse([], [])

    def test_permutation_invariant(self):
        t, p = [1.0, 5.0, -2.0], [0.5, 6.0, -1.0]
        assert rmse(t, p) == pytest.approx(rmse(t[::-1], p[::-1]), rel=1e-14)


class TestMape:
    def test_identity(self):
        s = mape([2, 4], [2, 4])
        assert s.mean == 0.0 and s.n_skipped == 0

    def test_halving(self):
        assert mape([2], [1]).mean == pytest.approx(50.0)

    def test_threshold_skips_near_zero_truth(self):
        s = mape([1e-15, 2], [1, 2])
        assert s.mean == 0.0
        assert s.n_skipped == 1
        assert s.n_valid == 1

    def test_all_skipped_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mape([0.0, 1e-14], [1, 1])

    def test_permutation_invariant(self):
        t, p = [1.0, 2.0, 4.0], [1.5, 1.0, 5.0]
        assert mape(t, p).mean == pytest.approx(mape(t[::-1], p[::-1]).mean, rel=1e-14)


class TestResidualSd:
    def test_constant(self):
        assert residual_sd([1, 1, 1]) == 0.0

    def test_two_points(self):
        assert residual_sd([0, 2]) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_symmetric_three(self):
        assert residual_sd([-1, 0, 1]) == pytest.approx(1.0, rel=1e-12)

    def test_too_few(self):
        with pytest.raises(MetricError):
            residual_sd([1.0])


class TestNearestPoint:
    def test_on_curve(self, quarter_circle):
        _, d2 = nearest_point_on_curve(quarter_circle, OperatingPoint(0.6, 0.8))
        assert d2 == pytest.approx(0.0, abs=1e-12)

    def test_circle_center(self, quarter_circle):
        _, d2 = nearest_point_on_curve(quarter_circle, OperatingPoint(0.0, 0.0))
        assert d2 == pytest.approx(1.0, abs=1e-10)

    def test_endpoint_projection(self, quarter_circle):
        nearest, d2 = nearest_point_on_curve(quarter_circle, OperatingPoint(2.0, 0.0))
        assert d2 == pytest.approx(1.0, abs=1e-10)
        assert nearest.m_dot == pytest.approx(1.0, abs=1e-8)
        assert nearest.pi == pytest.approx(0.0, abs=1e-8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            beta = random_beta(rng)
            p = OperatingPoint(*point_near_box(rng, beta))
            _, d2 = nearest_point_on_curve(beta, p)
            assert d2 == pytest.approx(brute_force_nearest_d2(beta, p), abs=1e-8)

    def test_below_brute_force_for_every_curvature(self):
        # cur over the whole fitting box; one-sided, because for large cur
        # the scan in t cannot resolve the ends of the curve.
        rng = np.random.default_rng(17)
        for _ in range(500):
            beta = random_beta(rng, cur_range=(1.05, 20.0))
            p = OperatingPoint(*point_near_box(rng, beta))
            _, d2 = nearest_point_on_curve(beta, p)
            assert d2 <= brute_force_nearest_d2(beta, p) + 1e-8

    @pytest.mark.parametrize("beta, point", [
        ((0.197, 3.2149, 0.9399, 1.2812, 1.5293), (0.6316, 1.2807)),
        ((0.0437, 3.2243, 0.893, 1.265, 1.5948), (0.4999, 1.2646)),
        ((0.2016, 2.9743, 0.675, 1.2463, 1.642), (0.0903, 1.2461)),
    ])
    def test_minimum_behind_a_minimum_at_choke(self, beta, point):
        # cur < 2 and a point just below choke, inside the box: the distance
        # rises from the choke end, falls and rises again within the first
        # grid cells, so the nearest point lies past a local minimum at t = 0.
        beta, p = BetaVector(*beta), OperatingPoint(*point)
        _, d2 = nearest_point_on_curve(beta, p)
        assert d2 <= brute_force_nearest_d2(beta, p) + 1e-10
        assert d2 < (beta.m_ch - p.m_dot) ** 2 + (beta.pi_ch - p.pi) ** 2 - 1e-7

    def test_never_worse_than_golden_section(self):
        # 6,000 pairs, cur over the whole fitting box, points up to 30%
        # outside the curve's box, against the former golden-section kernel.
        rng = np.random.default_rng(19)
        for _ in range(300):
            beta = random_beta(rng, cur_range=(1.05, 20.0))
            m, pi = point_near_box(rng, beta, size=20)
            bmat = beta.as_array()[None, :]
            assert np.all(_ortho_d2_batch(bmat, m, pi) <= golden_nearest_d2(bmat, m, pi) + 1e-12)


class TestOrthoSum:
    def test_on_curve_points(self):
        beta = BetaVector(0.1, 2.0, 1.2, 1.1, 3.0)
        assert ortho_sum(beta, sample_curve(beta, 15)) == pytest.approx(0.0, abs=1e-12)

    def test_two_unit_distances(self, quarter_circle):
        pts = [OperatingPoint(0.0, 0.0), OperatingPoint(2.0, 0.0)]
        assert ortho_sum(quarter_circle, pts) == pytest.approx(2.0, abs=1e-9)

    def test_normal_perturbation(self):
        # Push 20 curve points outward along the radial normal of a circle arc;
        # each contributes delta^2 exactly.
        beta = BetaVector(0.0, 1.0, 1.0, 0.0, 2.0)
        delta = 0.01
        t = np.linspace(0.1, math.pi / 2 - 0.1, 20)
        pts = [OperatingPoint((1 + delta) * math.cos(a), (1 + delta) * math.sin(a))
               for a in t]
        assert ortho_sum(beta, pts) == pytest.approx(20 * delta ** 2, abs=1e-6)
        for p in pts:
            assert brute_force_nearest_d2(beta, p) == pytest.approx(delta ** 2, abs=1e-9)

    def test_empty(self, quarter_circle):
        with pytest.raises(MetricError):
            ortho_sum(quarter_circle, [])

    def test_nonnegative_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = random_beta(rng)
            pts = [OperatingPoint(rng.uniform(0, 1.5), rng.uniform(0.5, 3.5))
                   for _ in range(7)]
            assert ortho_sum(beta, pts) >= 0.0


class TestEvaluatePrediction:
    def test_on_curve_all_zero(self):
        beta = BetaVector(0.2, 2.4, 1.1, 1.3, 2.5)
        pts = sample_curve(beta, 12)
        for mode in (EvalMode.PRESSURE, EvalMode.MASSFLOW):
            pm = evaluate_prediction(beta, pts, mode)
            assert pm[MetricKind.RMSE].mean == pytest.approx(0.0, abs=1e-10)
            assert pm[MetricKind.ORTHO].mean == pytest.approx(0.0, abs=1e-10)

    def test_pressure_mode_345(self, quarter_circle):
        pm = evaluate_prediction(quarter_circle, [OperatingPoint(0.6, 0.9)],
                                 EvalMode.PRESSURE)
        assert pm[MetricKind.RMSE].mean == pytest.approx(0.1, abs=1e-12)

    def test_out_of_domain_clamped(self, quarter_circle):
        pm = evaluate_prediction(quarter_circle, [OperatingPoint(1.5, 0.2)],
                                 EvalMode.PRESSURE)
        assert pm.out_of_domain == 1
        # Clamped to choke: predicted pi = 0, truth 0.2.
        assert pm[MetricKind.RMSE].mean == pytest.approx(0.2, abs=1e-12)

    def test_mape_instability_near_zero_truth(self):
        # Normalized data with near-zero pressure truth values: tiny absolute
        # errors explode MAPE while the geometric fit stays tight.
        from cpmfit import massflow_at
        beta = BetaVector(0.0, 1.0, 1.0, 0.0, 3.0)
        # Measured pi is a third of the curve value near choke: absolute
        # errors stay below 1e-3 but every relative error is 200%.
        curve_pi = np.linspace(2e-4, 1e-3, 8)
        pts = [OperatingPoint(massflow_at(beta, float(c)), float(c) / 3.0)
               for c in curve_pi]
        pm = evaluate_prediction(beta, pts, EvalMode.PRESSURE)
        assert pm[MetricKind.MAPE].mean > 100.0
        assert pm[MetricKind.ORTHO].mean < 0.01

    def test_empty_measured(self, quarter_circle):
        with pytest.raises(MetricError):
            evaluate_prediction(quarter_circle, [])
