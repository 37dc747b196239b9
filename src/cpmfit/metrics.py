"""Fit- and prediction-quality metrics.

The orthogonal-distance machinery is vectorized over measurement points:
one shared parameter grid brackets the nearest curve point for every
measurement, then a golden-section pass refines all brackets at once.
The curve itself is evaluated only through model: its batched parametric
kernel (model._curve_xy_raw) and its explicit branch (model._explicit_branch).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, UndefinedMetricError
from .model import BetaVector, OperatingPoint, _curve_xy_raw, _explicit_branch, _points_to_xy

MAPE_EPS = 1e-12

GRID_SIZE = 257
GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class MetricKind(enum.Enum):
    RMSE = "rmse"
    MAPE = "mape"
    RESIDUAL_SD = "residual_sd"
    ORTHO = "ortho"


class EvalMode(enum.Enum):
    PRESSURE = "pressure"
    MASSFLOW = "massflow"


@dataclass(frozen=True)
class ErrorSummary:
    """Mean/SD of a metric over the valid points of one evaluation."""

    mean: float
    sd: float
    n_valid: int
    n_skipped: int
    has_nonfinite: bool = False


def rmse(truth, pred) -> float:
    """Root mean squared difference of two equal-length sequences."""
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise MetricError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricError("rmse of empty input")
    return float(np.sqrt(np.mean((t - p) ** 2)))


def mape(truth, pred) -> ErrorSummary:
    """Mean absolute percentage error, skipping |truth| <= MAPE_EPS points.

    Skipped points are counted, never imputed.  Raises UndefinedMetricError
    when every point is skipped (undefined, which is distinct from zero).
    """
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise MetricError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricError("mape of empty input")
    valid = np.abs(t) > MAPE_EPS
    n_skipped = int(np.sum(~valid))
    if not np.any(valid):
        raise UndefinedMetricError("all points below MAPE threshold")
    ape = 100.0 * np.abs(t[valid] - p[valid]) / np.abs(t[valid])
    sd = float(np.std(ape, ddof=1)) if ape.size > 1 else 0.0
    return ErrorSummary(float(np.mean(ape)), sd, int(ape.size), n_skipped)


def residual_sd(residuals) -> float:
    """Sample standard deviation (n-1 denominator) of the residuals."""
    r = np.asarray(residuals, dtype=float)
    if r.size < 2:
        raise MetricError("residual_sd needs >= 2 residuals")
    return float(np.std(r, ddof=1))


# ---------------------------------------------------------------------------
# Orthogonal distance
#
# The projection machinery is batched over candidate beta vectors so that
# population-based optimizers can evaluate a whole generation in one call.

# Golden-section iterations needed to shrink the two-cell grid bracket
# (pi/(GRID_SIZE-1) per cell) below GOLDEN_TOL.
_GOLDEN_ITERS = math.ceil(
    math.log(GOLDEN_TOL / (math.pi / (GRID_SIZE - 1))) / math.log(_INVPHI))


def _nearest_t_batch(bmat: np.ndarray, m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(B, N) curve parameters of the nearest points for each (beta, measurement).

    Coarse bracket on a shared grid, then golden-section refinement of all
    brackets simultaneously (the distance profile can be multimodal for
    high curvature exponents, so the grid stage bounds the basin).
    """
    n = m.size
    nb = bmat.shape[0]
    tg = np.linspace(0.0, math.pi / 2.0, GRID_SIZE)
    cx, cy = _curve_xy_raw(bmat, tg[None, :])  # (B, G)
    d2 = ((cx[:, :, None] - m[None, None, :]) ** 2
          + (cy[:, :, None] - pi[None, None, :]) ** 2)
    idx = np.argmin(d2, axis=1)  # (B, N)

    # Three brackets per point: the global-argmin cell plus both boundary
    # cells.  The parameterization has unbounded derivatives at the
    # endpoints for cur > 2, so the node minimum can sit in the wrong
    # basin when the true minimum hugs an endpoint.
    a = np.concatenate([
        tg[np.maximum(idx - 1, 0)],
        np.zeros((nb, n)),
        np.full((nb, n), tg[GRID_SIZE - 2]),
    ], axis=1)
    b = np.concatenate([
        tg[np.minimum(idx + 1, GRID_SIZE - 1)],
        np.full((nb, n), tg[1]),
        np.full((nb, n), tg[GRID_SIZE - 1]),
    ], axis=1)

    mm = np.tile(m, 6)
    pp = np.tile(pi, 6)
    for _ in range(_GOLDEN_ITERS):
        h = b - a
        x1 = b - _INVPHI * h
        x2 = a + _INVPHI * h
        gx, gy = _curve_xy_raw(bmat, np.concatenate([x1, x2], axis=1))
        g = (gx - mm) ** 2 + (gy - pp) ** 2
        left = g[:, :3 * n] < g[:, 3 * n:]
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
    t3 = 0.5 * (a + b)

    # Pick the best candidate per point, considering the exact endpoints too.
    cand_t = np.concatenate([t3, np.zeros((nb, n)),
                             np.full((nb, n), math.pi / 2.0)], axis=1)
    gx, gy = _curve_xy_raw(bmat, cand_t)
    g = (gx - np.tile(m, 5)) ** 2 + (gy - np.tile(pi, 5)) ** 2
    g = g.reshape(nb, 5, n)
    best = np.argmin(g, axis=1)  # (B, N)
    return np.take_along_axis(cand_t.reshape(nb, 5, n), best[:, None, :], axis=1)[:, 0, :]


def _ortho_d2_batch(bmat: np.ndarray, m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(B, N) squared orthogonal distances for a batch of betas."""
    t = _nearest_t_batch(bmat, m, pi)
    cx, cy = _curve_xy_raw(bmat, t)
    return (cx - m) ** 2 + (cy - pi) ** 2


def nearest_point_on_curve(beta: BetaVector, p: OperatingPoint) -> tuple[OperatingPoint, float]:
    """Nearest curve point to p and the squared Euclidean distance."""
    m = np.array([p.m_dot])
    pi = np.array([p.pi])
    bmat = beta.as_array()[None, :]
    cx, cy = _curve_xy_raw(bmat, _nearest_t_batch(bmat, m, pi))
    d2 = float((cx[0, 0] - p.m_dot) ** 2 + (cy[0, 0] - p.pi) ** 2)
    return OperatingPoint(float(cx[0, 0]), float(cy[0, 0])), d2


def ortho_sum(beta: BetaVector, points) -> float:
    """Sum (not mean) of squared orthogonal distances from the points to the curve."""
    m, pi = _points_to_xy(points)
    if m.size == 0:
        raise MetricError("ortho_sum of empty input")
    return float(np.sum(_ortho_d2_batch(beta.as_array()[None, :], m, pi)[0]))


# ---------------------------------------------------------------------------
# Prediction evaluation


@dataclass(frozen=True)
class PredictionMetrics:
    """All metric summaries for one (beta, measured points) evaluation."""

    mode: EvalMode
    summaries: dict
    out_of_domain: int

    def __getitem__(self, kind: MetricKind) -> ErrorSummary:
        return self.summaries[kind]


def _clamped_prediction(beta: BetaVector, m: np.ndarray, pi: np.ndarray,
                        mode: EvalMode) -> tuple[np.ndarray, np.ndarray, int]:
    """(truth, pred, out-of-domain count) for the chosen comparison mode."""
    if mode is EvalMode.PRESSURE:
        pred, out = _explicit_branch(beta, m, True)
        return pi, pred, out
    pred, out = _explicit_branch(beta, pi, False)
    return m, pred, out


def _pointwise_summary(truth: np.ndarray, pred: np.ndarray, kind: MetricKind) -> ErrorSummary:
    """One metric's summary over the pairs where both are finite: RMSE, MAPE, else residual SD."""
    if truth.size == 0:
        raise MetricError("no measured points to evaluate")
    finite = np.isfinite(truth) & np.isfinite(pred)
    nf = not bool(np.all(finite))
    t, p = truth[finite], pred[finite]
    n_bad = int(np.sum(~finite))
    if not t.size:
        return ErrorSummary(math.nan, math.nan, 0, n_bad, True)
    if kind is MetricKind.RMSE:
        err = np.abs(t - p)
        return ErrorSummary(rmse(t, p), float(np.std(err, ddof=1)) if err.size > 1 else 0.0,
                            int(t.size), n_bad, nf)
    if kind is MetricKind.MAPE:
        try:
            ms = mape(t, p)
        except UndefinedMetricError:
            return ErrorSummary(math.nan, math.nan, 0, int(t.size) + n_bad, True)
        return ErrorSummary(ms.mean, ms.sd, ms.n_valid, ms.n_skipped + n_bad, nf)
    if t.size < 2:
        return ErrorSummary(math.nan, math.nan, int(t.size), n_bad, True)
    return ErrorSummary(residual_sd(t - p), 0.0, int(t.size), n_bad, nf)


def evaluate_prediction(beta: BetaVector, measured, mode: EvalMode = EvalMode.PRESSURE) -> PredictionMetrics:
    """RMSE / MAPE / residual-SD / ortho summaries of beta against measured points.

    Out-of-domain measurements are clamped to the nearest curve endpoint and
    counted; non-finite intermediate values never raise, they set
    has_nonfinite on the affected summary.
    """
    m, pi = _points_to_xy(measured)
    truth, pred, out_of_domain = _clamped_prediction(beta, m, pi, mode)
    summaries = {kind: _pointwise_summary(truth, pred, kind)
                 for kind in (MetricKind.RMSE, MetricKind.MAPE, MetricKind.RESIDUAL_SD)}
    nf = summaries[MetricKind.RMSE].has_nonfinite  # some (truth, pred) pair is not finite

    finite = np.isfinite(m) & np.isfinite(pi)
    d2 = _ortho_d2_batch(beta.as_array()[None, :], m[finite], pi[finite])[0]
    if d2.size:
        summaries[MetricKind.ORTHO] = ErrorSummary(
            float(np.sum(d2)), float(np.std(d2, ddof=1)) if d2.size > 1 else 0.0,
            int(d2.size), int(m.size - d2.size), nf)
    else:
        summaries[MetricKind.ORTHO] = ErrorSummary(math.nan, math.nan, 0, int(m.size), True)

    return PredictionMetrics(mode=mode, summaries=summaries, out_of_domain=out_of_domain)
