"""Beta-parameter regression over speed, hold-out prediction and LOO cross-validation.

Each of the five beta components is fitted with an independent polynomial
(degree 4 by default, automatically reduced when data are scarce) over
speed scaled to [0, 1]; the polynomials are evaluated at the target speed
and the result must pass the same validity rule as a fitted beta.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CpmFitError, InvalidPredictionError, MetricError
from .metrics import EvalMode, MetricKind, evaluate_prediction
from .model import CUR_MIN, BetaVector, CompressorMap, Speedline, _invariant_violation, same_speed
from .optimize import FitConfig, FitResult, fit_speedline

BETA_FIELDS = ("m_zs", "pi_zs", "m_ch", "pi_ch", "cur")


class PredictionKind(enum.Enum):
    INTERPOLATION = "interpolation"
    EXTRAPOLATION = "extrapolation"


@dataclass(frozen=True)
class BetaTable:
    """Fitted beta vectors keyed by strictly increasing speed."""

    entries: tuple[tuple[float, BetaVector, FitResult | None], ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        speeds = [e[0] for e in entries]
        for a, b in zip(speeds, speeds[1:]):
            if not a < b:
                raise ValueError("BetaTable speeds must be strictly increasing")

    def speeds(self) -> np.ndarray:
        return np.array([e[0] for e in self.entries])

    def betas(self) -> np.ndarray:
        return np.array([e[1].as_array() for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PredictionConfig:
    degree: int = 4
    eval_mode: EvalMode = EvalMode.PRESSURE

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


@dataclass(frozen=True)
class PolyModel:
    """Per-component polynomial coefficients plus the speed scaling used to fit them."""

    coeffs: tuple[tuple[float, ...], ...]  # 5 x (degree+1), ascending powers
    speed_min: float
    speed_max: float
    degree: int
    degree_reduced: bool

    def _scale(self, speed) -> np.ndarray:
        s = np.asarray(speed, dtype=float)
        return (s - self.speed_min) / (self.speed_max - self.speed_min)

    def evaluate_raw(self, speed) -> np.ndarray:
        """Raw polynomial values for the 5 components, no constraint repair."""
        s = self._scale(speed)
        return np.array([np.polynomial.polynomial.polyval(s, c) for c in self.coeffs])


@dataclass(frozen=True)
class RepairFlags:
    cur_clamped: bool = False
    degree_reduced: bool = False


@dataclass(frozen=True)
class PredictionReport:
    """Outcome of one hold-out prediction, successful or failed."""

    target_speed: float
    kind: PredictionKind
    status: str  # "ok" | "failed"
    predicted_beta: BetaVector | None
    metrics: dict  # EvalMode -> {MetricKind: ErrorSummary}
    repair: RepairFlags
    out_of_domain: int
    underdetermined_fits: int
    failure_reason: str | None = None
    raw_values: tuple[float, ...] | None = None
    failed_fits: int = 0  # lines left out of the regression because their fit failed


def fit_beta_polynomials(table: BetaTable, cfg: PredictionConfig) -> PolyModel:
    """Independent least-squares polynomial per beta component over speed.

    The effective degree is min(cfg.degree, entries - 1): with exactly
    degree + 1 entries the polynomials interpolate the table exactly.
    """
    n = len(table)
    if n < 2:
        raise MetricError(f"beta regression needs >= 2 entries, got {n}")
    degree = min(cfg.degree, n - 1)
    speeds = table.speeds()
    s = (speeds - speeds.min()) / (speeds.max() - speeds.min())
    betas = table.betas()
    coeffs = tuple(
        tuple(float(c) for c in np.polynomial.polynomial.polyfit(s, betas[:, j], degree))
        for j in range(5)
    )
    return PolyModel(
        coeffs=coeffs,
        speed_min=float(speeds.min()),
        speed_max=float(speeds.max()),
        degree=degree,
        degree_reduced=degree < cfg.degree,
    )


def predict_beta(model: PolyModel, speed: float) -> tuple[BetaVector, RepairFlags]:
    """Evaluate the polynomials at the target speed under the fit's validity rule.

    Curvature below CUR_MIN, the fit box's lower bound, is raised to it and
    flagged cur_clamped; the point coordinates are taken as they are.  If
    the vector then breaks a BetaVector invariant an InvalidPredictionError
    carrying the raw values is raised.
    """
    raw = model.evaluate_raw(speed).ravel()
    vals = raw.copy()
    cur_clamped = bool(vals[4] < CUR_MIN)
    if cur_clamped:
        vals[4] = CUR_MIN
    if _invariant_violation(vals) >= 0.0:
        raise InvalidPredictionError(
            f"predicted beta at speed {speed} violates ordering invariants",
            raw_values=tuple(float(v) for v in raw))
    beta = BetaVector.from_array(vals)
    return beta, RepairFlags(cur_clamped, model.degree_reduced)


def classify(target_speed: float, remaining_speeds) -> PredictionKind:
    """Interpolation iff the target lies within (inclusive) the remaining span."""
    speeds = np.asarray(list(remaining_speeds), dtype=float)
    if speeds.size == 0:
        raise ValueError("remaining_speeds must be nonempty")
    if speeds.min() <= target_speed <= speeds.max():
        return PredictionKind.INTERPOLATION
    return PredictionKind.EXTRAPOLATION


def _line_seed(base_seed: int, speed: float) -> int:
    # Stable per-line seed, independent of which line was held out and of
    # the interpreter: a SeedSequence over the base seed (mod 2**64, so a
    # negative one works) and the IEEE bits of the speed rounded to 9 places.
    bits = int(np.float64(round(float(speed), 9)).view(np.uint64))
    state = np.random.SeedSequence([base_seed % 2**64, bits]).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF


def fit_each_line(lines, fit_cfg: FitConfig) -> list[FitResult | CpmFitError]:
    """Fit every speedline once, in order, each with its per-line derived seed.

    A line whose fit raises a CpmFitError gets that error in its slot, with
    the seed it was fitted with in ``seed`` as on a FitResult, and the
    remaining lines are still fitted.  A line's fit depends only on the
    line and its seed, so every hold-out of a map can share one such list.
    """
    fits = []
    for line in lines:
        cfg = replace(fit_cfg, seed=_line_seed(fit_cfg.seed, line.speed))
        try:
            fits.append(fit_speedline(line, cfg))
        except CpmFitError as exc:
            exc.seed = cfg.seed
            fits.append(exc)
    return fits


def fitted_pairs(pairs) -> list:
    """The (Speedline, fit) pairs whose fit succeeded, in order."""
    return [(line, fit) for line, fit in pairs if not isinstance(fit, CpmFitError)]


def fit_table(pairs) -> BetaTable:
    """BetaTable of (Speedline, fit) pairs; raises the first captured fit error."""
    entries = []
    for line, fit in pairs:
        if isinstance(fit, CpmFitError):
            raise fit
        entries.append((line.speed, fit.beta, fit))
    return BetaTable(tuple(entries))


def find_speedline(cpm: CompressorMap, speed: float) -> int | None:
    """Index of the speedline whose speed matches within SPEED_TOLERANCE, else None."""
    return next((i for i, sl in enumerate(cpm.speedlines) if same_speed(speed, sl.speed)),
                None)


def fit_map(cpm: CompressorMap, fit_cfg: FitConfig) -> BetaTable:
    """Fit every speedline of the map into a BetaTable (per-line derived seeds)."""
    return fit_table(zip(cpm.speedlines, fit_each_line(cpm.speedlines, fit_cfg)))


def _holdout_report(target: Speedline, rest, pred_cfg: PredictionConfig) -> PredictionReport:
    """Regress beta over the fitted (Speedline, fit) pairs of rest and evaluate it on target.

    Lines of rest whose fit failed are left out and counted in failed_fits;
    the kind is classified over the fitted lines (over all of rest when none
    is).  Fewer than two fitted lines or an invalid prediction give a failed
    report.
    """
    fitted = fitted_pairs(rest)
    kind = classify(target.speed, [sl.speed for sl, _ in fitted or rest])
    underdetermined = sum(int(fit.underdetermined) for _, fit in fitted)
    failed_fits = len(rest) - len(fitted)
    try:
        model = fit_beta_polynomials(fit_table(fitted), pred_cfg)
        beta, repair = predict_beta(model, target.speed)
    except CpmFitError as exc:
        return PredictionReport(
            target_speed=target.speed, kind=kind, status="failed",
            predicted_beta=None, metrics={}, repair=RepairFlags(),
            out_of_domain=0, underdetermined_fits=underdetermined,
            failure_reason=str(exc),
            raw_values=getattr(exc, "raw_values", None), failed_fits=failed_fits)

    metrics = {}
    out_of_domain = 0
    for mode in (EvalMode.PRESSURE, EvalMode.MASSFLOW):
        pm = evaluate_prediction(beta, target.points, mode)
        metrics[mode] = pm.summaries
        if mode is pred_cfg.eval_mode:
            out_of_domain = pm.out_of_domain
    return PredictionReport(
        target_speed=target.speed, kind=kind, status="ok",
        predicted_beta=beta, metrics=metrics, repair=repair,
        out_of_domain=out_of_domain, underdetermined_fits=underdetermined,
        failed_fits=failed_fits)


def holdout_predict(cpm: CompressorMap, target_speed: float,
                    fit_cfg: FitConfig | None = None,
                    pred_cfg: PredictionConfig | None = None) -> PredictionReport:
    """Remove the target line, fit the rest, regress beta and evaluate the prediction.

    The target line is the one whose speed matches target_speed within
    SPEED_TOLERANCE.  Remaining lines whose fit fails are left out of the
    regression and counted in the report's failed_fits; an invalid
    prediction gives a failed report.  The cross-validation harness keeps going.
    """
    fit_cfg = fit_cfg or FitConfig()
    pred_cfg = pred_cfg or PredictionConfig()
    k = find_speedline(cpm, target_speed)
    if k is None:
        raise ValueError(f"map has no speedline at speed {target_speed}")
    remaining = cpm.speedlines[:k] + cpm.speedlines[k + 1:]
    if len(remaining) < 2:
        raise ValueError("hold-out prediction needs >= 2 remaining speedlines")
    rest = list(zip(remaining, fit_each_line(remaining, fit_cfg)))
    return _holdout_report(cpm.speedlines[k], rest, pred_cfg)


@dataclass(frozen=True)
class AggregateSummary:
    """Per-kind aggregate of successful reports: mean, SD and median per metric."""

    kind: PredictionKind
    n_total: int
    n_failed: int
    stats: dict  # MetricKind -> {"mean": float, "sd": float, "median": float}


def aggregate_reports(reports, mode: EvalMode = EvalMode.PRESSURE) -> list[AggregateSummary]:
    """Summaries per prediction kind; failed reports are counted, not averaged in."""
    out = []
    for kind in PredictionKind:
        of_kind = [r for r in reports if r.kind is kind]
        if not of_kind:
            continue
        ok = [r for r in of_kind if r.status == "ok"]
        stats = {}
        for metric in MetricKind:
            vals = np.array([r.metrics[mode][metric].mean for r in ok])
            vals = vals[np.isfinite(vals)]
            if vals.size:
                stats[metric] = {
                    "mean": float(np.mean(vals)),
                    "sd": float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0,
                    "median": float(np.median(vals)),
                }
            else:
                stats[metric] = {"mean": math.nan, "sd": math.nan, "median": math.nan}
        out.append(AggregateSummary(kind=kind, n_total=len(of_kind),
                                    n_failed=len(of_kind) - len(ok), stats=stats))
    return out


def loo_crossval(cpm: CompressorMap, fit_cfg: FitConfig | None = None,
                 pred_cfg: PredictionConfig | None = None
                 ) -> tuple[list[PredictionReport], list[AggregateSummary]]:
    """One hold-out prediction per speedline plus per-kind aggregate summaries."""
    if len(cpm.speedlines) < 3:
        raise ValueError("leave-one-out needs >= 3 speedlines")
    fit_cfg = fit_cfg or FitConfig()
    pred_cfg = pred_cfg or PredictionConfig()
    return loo_from_fits(cpm, fit_each_line(cpm.speedlines, fit_cfg), pred_cfg)


def loo_from_fits(cpm: CompressorMap, fits, pred_cfg: PredictionConfig
                  ) -> tuple[list[PredictionReport], list[AggregateSummary]]:
    """loo_crossval over the per-line fits of fit_each_line: each hold-out drops one."""
    pairs = list(zip(cpm.speedlines, fits))
    reports = [_holdout_report(line, pairs[:k] + pairs[k + 1:], pred_cfg)
               for k, line in enumerate(cpm.speedlines)]
    return reports, aggregate_reports(reports, pred_cfg.eval_mode)
