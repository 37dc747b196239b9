"""Superellipse geometry and direct conic fit."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpmfit import (
    BetaVector,
    DegenerateInputError,
    DomainError,
    EvalMode,
    OperatingPoint,
    Speedline,
    conic_geometry,
    fit_direct_conic,
    implicit_residual,
    massflow_at,
    pressure_at,
    sample_curve,
)
from cpmfit.metrics import _clamped_prediction
from cpmfit.model import curve_xy


def beta_strategy(cur_max=10.0):
    finite = st.floats(-5, 5, allow_nan=False)
    return st.builds(
        lambda m_zs, dm, pi_ch, dpi, cur: BetaVector(
            m_zs, pi_ch + dpi, m_zs + dm, pi_ch, cur),
        finite, st.floats(0.1, 5), finite, st.floats(0.1, 5), st.floats(1.05, cur_max))


class TestTypes:
    def test_operating_point_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OperatingPoint(math.nan, 1.0)
        with pytest.raises(ValueError):
            OperatingPoint(1.0, math.inf)

    def test_speedline_rejects_unsorted_and_ties(self):
        p = [OperatingPoint(0.1, 2.0), OperatingPoint(0.3, 1.5)]
        Speedline(100.0, tuple(p))
        with pytest.raises(ValueError):
            Speedline(100.0, tuple(reversed(p)))
        with pytest.raises(ValueError):
            Speedline(100.0, (p[0], p[0]))

    def test_beta_ordering_invariants(self):
        with pytest.raises(ValueError):
            BetaVector(1.0, 2.0, 0.5, 1.0, 2.0)  # m_ch <= m_zs
        with pytest.raises(ValueError):
            BetaVector(0.0, 1.0, 1.0, 1.5, 2.0)  # pi_zs <= pi_ch
        with pytest.raises(ValueError):
            BetaVector(0.0, 2.0, 1.0, 1.0, 1.0)  # cur below minimum


class TestPressureAt:
    def test_surge_endpoint(self, quarter_circle):
        assert pressure_at(quarter_circle, 0.0) == 1.0

    def test_345_circle_point(self, quarter_circle):
        assert pressure_at(quarter_circle, 0.6) == pytest.approx(0.8, abs=1e-12)

    def test_closed_form_cur3(self):
        beta = BetaVector(1.0, 3.0, 4.0, 1.0, 3.0)
        expected = 1.0 + 2.0 * (1.0 - 0.5 ** 3) ** (1.0 / 3.0)  # 2.91167...
        got = pressure_at(beta, 2.5)
        assert got == pytest.approx(expected, rel=1e-12)
        # Cross-check by substituting back into the implicit equation.
        assert implicit_residual(beta, OperatingPoint(2.5, got)) == pytest.approx(0.0, abs=1e-12)

    def test_domain_error(self, quarter_circle):
        with pytest.raises(DomainError):
            pressure_at(quarter_circle, 1.5)
        with pytest.raises(DomainError):
            pressure_at(quarter_circle, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(beta_strategy())
    def test_monotone_nonincreasing(self, beta):
        m = np.linspace(beta.m_zs, beta.m_ch, 100)
        pi = pressure_at(beta, m)
        assert np.all(np.diff(pi) <= 1e-12)
        assert pi[0] == pytest.approx(beta.pi_zs, abs=1e-12)
        assert pi[-1] == pytest.approx(beta.pi_ch, abs=1e-12)


class TestMassflowAt:
    def test_surge_endpoint(self, quarter_circle):
        assert massflow_at(quarter_circle, 1.0) == 0.0

    def test_inverse_345(self, quarter_circle):
        assert massflow_at(quarter_circle, 0.8) == pytest.approx(0.6, abs=1e-12)

    def test_round_trip_cur3(self):
        beta = BetaVector(1.0, 3.0, 4.0, 1.0, 3.0)
        assert massflow_at(beta, pressure_at(beta, 2.5)) == pytest.approx(2.5, rel=1e-10)

    def test_domain_error(self, quarter_circle):
        with pytest.raises(DomainError):
            massflow_at(quarter_circle, 1.1)

    @settings(max_examples=100, deadline=None)
    @given(beta_strategy(), st.floats(0, 1))
    def test_round_trip_property(self, beta, frac):
        # Deep in the flat tail (u^(cur-1) tiny) float64 cannot carry the
        # round trip through pi at this precision; restrict to the
        # representable region.
        assume(frac ** (beta.cur - 1.0) >= 1e-5)
        m = beta.m_zs + frac * (beta.m_ch - beta.m_zs)
        back = massflow_at(beta, pressure_at(beta, m))
        assert back == pytest.approx(m, rel=1e-10, abs=1e-10 * (beta.m_ch - beta.m_zs))


class TestImplicitResidual:
    def test_on_curve(self, quarter_circle):
        assert implicit_residual(quarter_circle, OperatingPoint(0.6, 0.8)) == pytest.approx(0.0, abs=1e-12)

    def test_center_and_corner(self, quarter_circle):
        assert implicit_residual(quarter_circle, OperatingPoint(0.0, 0.0)) == -1.0
        assert implicit_residual(quarter_circle, OperatingPoint(1.0, 1.0)) == 1.0


class TestSampleCurve:
    def test_quarter_circle_three_points(self, quarter_circle):
        pts = sample_curve(quarter_circle, 3)
        expected = [(1.0, 0.0), (math.sqrt(2) / 2, math.sqrt(2) / 2), (0.0, 1.0)]
        for p, (em, epi) in zip(pts, expected):
            assert p.m_dot == pytest.approx(em, abs=1e-12)
            assert p.pi == pytest.approx(epi, abs=1e-12)

    def test_endpoints_only(self, quarter_circle):
        pts = sample_curve(quarter_circle, 2)
        assert (pts[0].m_dot, pts[0].pi) == (1.0, 0.0)
        assert (pts[-1].m_dot, pts[-1].pi) == (0.0, 1.0)

    def test_residuals_below_tolerance(self):
        beta = BetaVector(1.0, 3.0, 4.0, 1.0, 4.0)
        pts = sample_curve(beta, 5)
        assert pts[0].m_dot == pytest.approx(4.0, abs=1e-12)
        assert pts[0].pi == pytest.approx(1.0, abs=1e-12)
        assert pts[-1].m_dot == pytest.approx(1.0, abs=1e-12)
        assert pts[-1].pi == pytest.approx(3.0, abs=1e-12)
        for p in pts:
            assert abs(implicit_residual(beta, p)) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(beta_strategy())
    def test_residual_property(self, beta):
        for p in sample_curve(beta, 17):
            assert abs(implicit_residual(beta, p)) < 1e-10

    def test_cur2_satisfies_quadratic_ellipse(self):
        beta = BetaVector(0.2, 2.0, 1.4, 0.5, 2.0)
        for p in sample_curve(beta, 50):
            u = (p.m_dot - beta.m_zs) / (beta.m_ch - beta.m_zs)
            v = (p.pi - beta.pi_ch) / (beta.pi_zs - beta.pi_ch)
            assert u * u + v * v == pytest.approx(1.0, abs=1e-10)

    def test_rejects_n_below_two(self, quarter_circle):
        with pytest.raises(ValueError):
            sample_curve(quarter_circle, 1)


class TestCurveForms:
    @settings(max_examples=200, deadline=None)
    @given(beta_strategy(cur_max=20.0), st.floats(0.05, math.pi / 2 - 0.05))
    def test_parametric_and_explicit_forms_agree(self, beta, t):
        # A scalar t gives the same point as a one-element array.
        m, pi = (float(v) for v in curve_xy(beta, t))
        m1, pi1 = curve_xy(beta, np.array([t]))
        assert (m, pi) == (m1[0], pi1[0])
        # The explicit branches pass through the parametric point.
        dm, dpi = beta.m_ch - beta.m_zs, beta.pi_zs - beta.pi_ch
        assert abs(pressure_at(beta, m) - pi) <= 1e-10 * dpi
        assert abs(massflow_at(beta, pi) - m) <= 1e-10 * dm
        # In the domain, the clamped prediction is the explicit branch exactly.
        ms = np.array([beta.m_zs, m, beta.m_ch])
        pis = np.array([beta.pi_ch, pi, beta.pi_zs])
        _, pred, out = _clamped_prediction(beta, ms, pis, EvalMode.PRESSURE)
        assert out == 0 and pred.tolist() == pressure_at(beta, ms).tolist()
        _, pred, out = _clamped_prediction(beta, ms, pis, EvalMode.MASSFLOW)
        assert out == 0 and pred.tolist() == massflow_at(beta, pis).tolist()


def circle_points(n, cx=0.0, cy=0.0, rx=1.0, ry=1.0, phase=0.0):
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False) + phase
    return [OperatingPoint(cx + rx * math.cos(a), cy + ry * math.sin(a)) for a in t]


class TestDirectConic:
    def test_unit_circle(self):
        conic = fit_direct_conic(circle_points(8))
        expected = np.array([1.0, 0, 1.0, 0, 0, -1.0])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(conic.as_array(), expected, atol=1e-10)

    def test_axis_aligned_ellipse_recovery(self):
        pts = circle_points(10, cx=2.0, cy=1.0, rx=3.0, ry=2.0, phase=0.3)
        conic = fit_direct_conic(pts)
        cx, cy, major, minor, _ = conic_geometry(conic)
        assert cx == pytest.approx(2.0, abs=1e-8)
        assert cy == pytest.approx(1.0, abs=1e-8)
        assert major == pytest.approx(3.0, abs=1e-8)
        assert minor == pytest.approx(2.0, abs=1e-8)

    def test_collinear_degenerate(self):
        pts = [OperatingPoint(float(i), 2.0 * i + 1.0) for i in range(6)]
        with pytest.raises(DegenerateInputError):
            fit_direct_conic(pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            fit_direct_conic(circle_points(5))

    def test_order_invariance(self):
        rng = np.random.default_rng(7)
        pts = circle_points(12, cx=-1.0, cy=0.5, rx=2.0, ry=0.7, phase=0.1)
        ref = fit_direct_conic(pts).as_array()
        for _ in range(5):
            perm = rng.permutation(len(pts))
            got = fit_direct_conic([pts[i] for i in perm]).as_array()
            np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_unit_norm_and_positive_a(self):
        conic = fit_direct_conic(circle_points(9, rx=1.7, ry=0.9))
        assert np.linalg.norm(conic.as_array()) == pytest.approx(1.0, abs=1e-12)
        assert conic.a > 0
