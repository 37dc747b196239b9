"""Beta regression over speed, hold-out prediction and cross-validation."""
import numpy as np
import pytest

from conftest import polynomial_beta_map, speedline_from_beta
from cpmfit import (
    BetaTable,
    BetaVector,
    EvalMode,
    FitConfig,
    InvalidPredictionError,
    MetricError,
    MetricKind,
    PolyModel,
    PredictionConfig,
    PredictionKind,
    aggregate_reports,
    classify,
    fit_beta_polynomials,
    fit_map,
    holdout_predict,
    loo_crossval,
    predict_beta,
)
from cpmfit.model import CUR_MIN
from cpmfit.predict import _line_seed

FAST_FIT = FitConfig(de_max_iters=300, seed=0)


def table_from_laws(speeds, coeffs):
    """BetaTable whose components follow polynomial laws in normalized speed."""
    speeds = np.asarray(speeds, dtype=float)
    s = (speeds - speeds.min()) / (speeds.max() - speeds.min())
    entries = []
    for sp, sn in zip(speeds, s):
        vals = [float(np.polynomial.polynomial.polyval(sn, coeffs[j])) for j in range(5)]
        entries.append((float(sp), BetaVector(*vals), None))
    return BetaTable(tuple(entries))

LAWS = {
    0: (0.10, 0.10),
    1: (2.0, 0.8, -0.2),
    2: (0.95, 0.25),
    3: (1.1, 0.3, 0.1),
    4: (3.0, 0.5),
}


class TestLineSeed:
    def test_pinned_values(self):
        # Derived from the base seed and the speed's IEEE bits, not from the
        # interpreter's hash, so these hold in every Python process.
        assert _line_seed(0, 500.0) == 1550128009
        assert _line_seed(1, 500.0) == 358072468
        assert _line_seed(-1, 300.0) == 174560319
        # Speeds equal after rounding to 9 places share a seed.
        assert _line_seed(0, 500.0 + 1e-10) == _line_seed(0, 500.0)


class TestBetaTable:
    def test_requires_increasing_speeds(self):
        b = BetaVector(0.1, 2.0, 1.0, 1.1, 3.0)
        with pytest.raises(ValueError):
            BetaTable(((300.0, b, None), (250.0, b, None)))

    def test_arrays(self):
        t = table_from_laws([250, 300, 350], LAWS)
        assert t.speeds().tolist() == [250.0, 300.0, 350.0]
        assert t.betas().shape == (3, 5)
        assert len(t) == 3


class TestFitBetaPolynomials:
    def test_recovers_linear_law_exactly(self):
        t = table_from_laws([250, 300, 350, 400, 450], LAWS)
        model = fit_beta_polynomials(t, PredictionConfig(degree=2))
        # m_zs follows 0.10 + 0.10 s: coefficients recovered to round-off.
        np.testing.assert_allclose(model.coeffs[0][:2], (0.10, 0.10), atol=1e-10)
        np.testing.assert_allclose(model.coeffs[0][2:], 0.0, atol=1e-10)
        np.testing.assert_allclose(model.coeffs[1], (2.0, 0.8, -0.2), atol=1e-10)

    def test_degree_reduced_with_scarce_data(self):
        t = table_from_laws([250, 300, 350], LAWS)
        model = fit_beta_polynomials(t, PredictionConfig(degree=4))
        assert model.degree == 2
        assert model.degree_reduced

    def test_constant_components(self):
        laws = {0: (0.1,), 1: (2.0,), 2: (1.0,), 3: (1.1,), 4: (3.0,)}
        t = table_from_laws([100, 200, 300, 400], laws)
        model = fit_beta_polynomials(t, PredictionConfig(degree=3))
        raw = model.evaluate_raw(237.5)
        np.testing.assert_allclose(raw, [0.1, 2.0, 1.0, 1.1, 3.0], atol=1e-9)

    def test_too_few_entries(self):
        t = BetaTable(((250.0, BetaVector(0.1, 2.0, 1.0, 1.1, 3.0), None),))
        with pytest.raises(MetricError):
            fit_beta_polynomials(t, PredictionConfig())


class TestPredictBeta:
    def test_exact_at_table_nodes(self):
        t = table_from_laws([250, 300, 350, 400, 450], LAWS)
        cfg = PredictionConfig(degree=4)
        model = fit_beta_polynomials(t, cfg)
        for speed, beta, _ in t.entries:
            got, flags = predict_beta(model, speed)
            np.testing.assert_allclose(got.as_array(), beta.as_array(), atol=1e-9)
            assert not flags.cur_clamped

    def test_cur_clamped_flag(self):
        # Constant curvature 1.0, below the fit box's floor: raised to it.
        model = PolyModel(((0.1,), (2.0,), (1.0,), (1.1,), (1.0,)), speed_min=250.0,
                          speed_max=350.0, degree=0, degree_reduced=False)
        beta, flags = predict_beta(model, 325.0)
        assert beta.cur == CUR_MIN
        assert flags.cur_clamped
        # Curvature 1.2 is one a fit can return, so it passes through.
        laws = dict(LAWS)
        laws[4] = (1.2,)
        model = fit_beta_polynomials(table_from_laws([250, 300, 350], laws),
                                     PredictionConfig(degree=2))
        beta, flags = predict_beta(model, 325.0)
        assert beta.cur == pytest.approx(1.2)
        assert not flags.cur_clamped

    def test_ordering_violation_raises_with_raw_values(self):
        laws = dict(LAWS)
        laws[0] = (0.1, 0.7)  # m_zs rises fast enough to overtake m_ch beyond the table
        t = table_from_laws([250, 300, 350], laws)
        cfg = PredictionConfig(degree=1)
        model = fit_beta_polynomials(t, cfg)
        with pytest.raises(InvalidPredictionError) as exc:
            predict_beta(model, 700.0)
        assert exc.value.raw_values is not None
        assert len(exc.value.raw_values) == 5


class TestClassify:
    def test_interior(self):
        assert classify(475.0, [250, 300, 550]) is PredictionKind.INTERPOLATION

    def test_below_range(self):
        assert classify(250.0, [300, 400, 550]) is PredictionKind.EXTRAPOLATION

    def test_boundaries_inclusive(self):
        assert classify(300.0, [300, 400]) is PredictionKind.INTERPOLATION
        assert classify(400.0, [300, 400]) is PredictionKind.INTERPOLATION

    def test_order_invariant(self):
        assert classify(350.0, [400, 300, 500]) is classify(350.0, [300, 400, 500])


class TestFitMap:
    def test_table_matches_map(self, default_poly_map):
        table = fit_map(default_poly_map, FAST_FIT)
        assert len(table) == len(default_poly_map.speedlines)
        np.testing.assert_array_equal(
            table.speeds(), [sl.speed for sl in default_poly_map.speedlines])
        for _, beta, result in table.entries:
            assert result is not None
            assert result.objective < 1e-4


class TestHoldout:
    def test_interior_prediction_accuracy(self, default_poly_map):
        report = holdout_predict(default_poly_map, 400.0, FitConfig(seed=0))
        assert report.status == "ok"
        assert report.kind is PredictionKind.INTERPOLATION
        rmse = report.metrics[EvalMode.PRESSURE][MetricKind.RMSE].mean
        ortho = report.metrics[EvalMode.PRESSURE][MetricKind.ORTHO].mean
        assert rmse < 1e-4
        assert ortho < 1e-6
        assert EvalMode.MASSFLOW in report.metrics

    def test_two_remaining_lines_reduce_degree(self):
        cpm = polynomial_beta_map([300, 400, 500], LAWS)
        report = holdout_predict(cpm, 400.0, FAST_FIT, PredictionConfig(degree=4))
        assert report.status == "ok"
        assert report.repair.degree_reduced

    def test_unknown_speed_rejected(self, default_poly_map):
        with pytest.raises(ValueError):
            holdout_predict(default_poly_map, 123.0, FAST_FIT)


class TestCrossval:
    def test_constant_beta_map(self):
        laws = {0: (0.1,), 1: (2.0,), 2: (1.0,), 3: (1.1,), 4: (3.0,)}
        cpm = polynomial_beta_map([200, 300, 400, 500], laws, n_points=12)
        reports, summaries = loo_crossval(cpm, FAST_FIT, PredictionConfig(degree=2))
        assert len(reports) == 4
        assert all(r.status == "ok" for r in reports)
        for r in reports:
            assert r.metrics[EvalMode.PRESSURE][MetricKind.RMSE].mean < 1e-3

    def test_aggregate_recomputation(self):
        laws = {0: (0.1,), 1: (2.0,), 2: (1.0,), 3: (1.1,), 4: (3.0,)}
        cpm = polynomial_beta_map([200, 300, 400, 500], laws, n_points=12)
        reports, summaries = loo_crossval(cpm, FAST_FIT, PredictionConfig(degree=2))
        by_kind = {s.kind: s for s in summaries}
        for kind, summary in by_kind.items():
            vals = [r.metrics[EvalMode.PRESSURE][MetricKind.RMSE].mean
                    for r in reports if r.kind is kind and r.status == "ok"]
            assert summary.stats[MetricKind.RMSE]["mean"] == pytest.approx(np.mean(vals))
            assert summary.stats[MetricKind.RMSE]["median"] == pytest.approx(np.median(vals))
            assert summary.n_total == len(vals)
            assert summary.n_failed == 0

    def test_failed_reports_counted_not_averaged(self):
        from cpmfit.predict import PredictionReport, RepairFlags
        ok = PredictionReport(
            target_speed=300.0, kind=PredictionKind.INTERPOLATION, status="ok",
            predicted_beta=BetaVector(0.1, 2.0, 1.0, 1.1, 3.0),
            metrics={EvalMode.PRESSURE: {m: _summary(0.5) for m in MetricKind}},
            repair=RepairFlags(), out_of_domain=0, underdetermined_fits=0)
        bad = PredictionReport(
            target_speed=350.0, kind=PredictionKind.INTERPOLATION, status="failed",
            predicted_beta=None, metrics={}, repair=RepairFlags(),
            out_of_domain=0, underdetermined_fits=0, failure_reason="boom")
        [summary] = aggregate_reports([ok, bad], EvalMode.PRESSURE)
        assert summary.n_total == 2
        assert summary.n_failed == 1
        assert summary.stats[MetricKind.RMSE]["mean"] == pytest.approx(0.5)

    def test_requires_three_lines(self):
        cpm = polynomial_beta_map([300, 400], LAWS)
        with pytest.raises(ValueError):
            loo_crossval(cpm, FAST_FIT)


def _summary(mean):
    from cpmfit.metrics import ErrorSummary
    return ErrorSummary(mean=mean, sd=0.0, n_valid=1, n_skipped=0, has_nonfinite=False)
