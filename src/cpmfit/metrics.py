"""Fit- and prediction-quality metrics.

The orthogonal distance projects every measurement onto the curve of every
candidate beta at once: a fixed parameter grid gives the nearest node, box
bounds on the grid cells discard the end cells that cannot beat it, and
safeguarded Newton with bisection in the flat coordinate of each half of
the curve refines the rest (see the Orthogonal distance section).  The
projection writes the curve in the forms it needs, parametric on the grid
and explicit in the flat coordinate; everything else evaluates it through
model's explicit branch (model._explicit_branch).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, UndefinedMetricError
from .model import BetaVector, OperatingPoint, _explicit_branch, _points_to_xy

MAPE_EPS = 1e-12


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
# The foot point of a measurement (p, q) is the curve point nearest to it.
# The projection is batched over candidate beta rows, so that population
# methods score a whole generation in one call, and runs in three stages.
#
# 1. Grid.  d2 at GRID_SIZE fixed parameter nodes t; the nearest node and
#    its two cells form the first bracket.  With e = 2/cur, c^e and s^e are
#    exp(e log c) and exp(e log s) of the cached logs below.
# 2. Bounds.  x(t) falls and y(t) rises on [0, pi/2], so the arc of a cell
#    lies in the box of its two end nodes.  The two end cells are brackets
#    too (for cur > 2 the parameter derivative is unbounded at the ends, so
#    a basin there can hide between two nodes), but only when their box
#    comes as close as the nearest node and the first bracket does not
#    already hold them.
# 3. Newton.  Each bracket is refined in the flat coordinate of its half of
#    the curve: v = sin(t)^e on the choke half, where y is linear in v, and
#    w = cos(t)^e on the surge half, where x is linear in w.  The surge half
#    of a curve is the choke half of its mirror image (x and y swapped,
#    t -> pi/2 - t), so one solver serves both.  It finds a root of the
#    foot-point condition h'(v) = 0, h = d2/2, by safeguarded Newton (see
#    _refine).  The kept foot point is the best of the refined brackets and
#    the nearest node; the exact ends are nodes too.
#
# The kernel returns foot points, not parameters: for cur = 20, y within 3%
# of pi_ch above choke needs t < 1e-15, which is below what t can resolve.

GRID_SIZE = 257

# Newton stops once a step moves v by at most NEWTON_TOL times the distance
# of the bracket's outer node from the end of its half of the curve.
NEWTON_TOL = 1e-10

# Bisection alone meets NEWTON_TOL within log2(1/NEWTON_TOL) halvings; the
# cap leaves as many steps again for Newton.
_MAX_STEPS = 2 * math.ceil(-math.log2(NEWTON_TOL))

_T_GRID = np.linspace(0.0, math.pi / 2.0, GRID_SIZE)
with np.errstate(divide="ignore"):
    _LOG_COS = np.log(np.cos(_T_GRID))
    _LOG_SIN = np.log(np.sin(_T_GRID))
_LOG_COS[-1] = -np.inf  # cos(pi/2) rounds to 6e-17, not 0
_MID = (GRID_SIZE - 1) // 2


def _flat_eval(v, frame):
    """Frame point (x, y) at flat coordinate v, with h' and h'' in v.

    The frame curve is x = x0 + dx (1 - v^cur)^(1/cur), y = y0 + dy v: the
    choke half of a superellipse, with s^2 = v^cur and c^e = (1 - s^2)^(1/cur).
    Then x' = -dx v^(cur-1) c^e / c^2 and x'' = -dx (cur-1) v^(cur-2) c^e / c^4;
    at v = 0 they take their limits.  frame is built by _refine.
    """
    cur, inv_cur, x0, dx, y0, dy, p, q, dy2, k2, lim = frame
    s2 = v ** cur
    c2 = 1.0 - s2
    ce = c2 ** inv_cur
    a = ce / c2
    x = x0 + dx * ce
    y = y0 + dy * v
    ex = x - p
    pos = v > 0.0
    r1 = np.where(pos, s2 / v, 0.0)
    r2 = np.where(pos, r1 / v, lim)
    xv = -dx * r1 * a
    return x, y, dy * (y - q) + ex * xv, dy2 + xv * xv + ex * (k2 * r2 * a / c2)


def _refine(lo, hi, cur, x0, dx, y0, dy, p, q):
    """Frame foot points of the brackets [lo, hi] (flat coordinates, lo nearer the end).

    Newton on h'(v) = 0 starts from an end where h' points into the
    bracket: hi when h'(hi) > 0, else lo when h'(lo) < 0; a bracket with
    neither holds no interior minimum.  While h'(lo) < 0 < h'(hi) is known,
    a Newton step that leaves the bracket is replaced by a Newton step in
    ln v, which follows the power law of h' near v = 0, and that by
    bisection in v.  Before a sign change is known, Newton moves
    monotonically towards the nearest root when h' is convex (started at
    hi) or concave (started at lo) on the bracket, and a step that leaves
    it proves there is none.  That covers the end cells: for cur < 2 and a
    point inside the curve's box, h''' >= 0 there, so h' may run + - + and
    hide a minimum behind a local minimum at the exact end; for cur > 2 h'
    is concave near the end.  Every element stops on a small step or at
    _MAX_STEPS, and the loop ends when all have stopped.
    """
    lim = np.where(cur > 2.0, 0.0, np.where(cur == 2.0, 1.0, np.inf))  # v^(cur-2) at v = 0
    frame = (cur, 1.0 / cur, x0, dx, y0, dy, p, q, dy * dy, -dx * (cur - 1.0), lim)
    k = lo.size
    ends = _flat_eval(np.concatenate([lo, hi]), tuple(np.concatenate([c, c]) for c in frame))
    lo_ok, hi_ok = ends[2][:k] < 0.0, ends[2][k:] > 0.0
    x, y, h1, h2 = (np.where(hi_ok, c[k:], c[:k]) for c in ends)
    v = np.where(hi_ok, hi, lo)
    done = ~(lo_ok | hi_ok) | (h1 == 0.0)
    tol = NEWTON_TOL * hi
    for _ in range(_MAX_STEPS):
        if done.all():
            break
        valid = lo_ok & hi_ok
        h_convex = h2 > 0.0
        dv = -h1 / h2
        vn = v + dv
        newton = h_convex & (vn >= lo) & (vn <= hi)
        vl = v * np.exp(dv / v)
        log_newton = valid & h_convex & (vl > lo) & (vl < hi)
        done |= ~(newton | valid)
        vn = np.where(done, v, np.where(newton, vn, np.where(log_newton, vl, 0.5 * (lo + hi))))
        step = np.abs(vn - v)
        v = vn
        x, y, h1, h2 = _flat_eval(v, frame)
        neg, pos = h1 < 0.0, h1 > 0.0
        lo = np.where(neg, v, lo)
        hi = np.where(pos, v, hi)
        lo_ok |= neg
        hi_ok |= pos
        done |= (step <= tol) | (hi - lo <= tol) | ~(neg | pos)
    return x, y


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _foot_points(bmat: np.ndarray, m: np.ndarray, pi: np.ndarray):
    """(B, N) foot points x, y and squared distances d2 for each (beta row, measurement).

    A non-finite measurement gets a non-finite d2, without a warning.
    """
    nb, n = bmat.shape[0], m.size
    m_zs, pi_zs, m_ch, pi_ch, cur = bmat.T
    dm, dpi = m_ch - m_zs, pi_zs - pi_ch
    e = (2.0 / cur)[:, None]
    w = np.exp(e * _LOG_COS)
    v = np.exp(e * _LOG_SIN)
    gx = m_zs[:, None] + dm[:, None] * w
    gy = pi_ch[:, None] + dpi[:, None] * v

    # Nearest node: the largest x p + y q - (x^2 + y^2)/2, as one matrix
    # product per row; its d2 is then computed directly.
    score = np.matmul(np.stack([m, pi, np.ones(n)], axis=1),
                      np.stack([gx, gy, -0.5 * (gx * gx + gy * gy)], axis=1))
    idx = np.argmax(score, axis=2)
    rows = np.arange(nb)[:, None]
    best_x, best_y = gx[rows, idx], gy[rows, idx]
    best_d2 = (best_x - m) ** 2 + (best_y - pi) ** 2

    def cell_bound(a):
        """Squared distance from each point to the box of the arc between nodes a and a + 1."""
        bx = np.maximum(np.maximum(gx[:, a + 1, None] - m, m - gx[:, a, None]), 0.0)
        by = np.maximum(np.maximum(gy[:, a, None] - pi, pi - gy[:, a + 1, None]), 0.0)
        return bx * bx + by * by

    # Brackets: one around each nearest node, then the surviving end cells.
    # A bracket past the middle node, and every surge cell, is solved on the
    # mirror image; lo is the node nearer the end of its half.
    cb, cj = np.nonzero((idx > 1) & (cell_bound(0) <= best_d2))
    sb, sj = np.nonzero((idx < GRID_SIZE - 2) & (cell_bound(GRID_SIZE - 2) <= best_d2))
    i = idx.ravel()
    surge_side = i > _MID
    b = np.concatenate([np.repeat(np.arange(nb), n), cb, sb])
    j = np.concatenate([np.tile(np.arange(n), nb), cj, sj])
    mirror = np.concatenate([surge_side, np.zeros(cb.size, bool), np.ones(sb.size, bool)]).astype(int)
    lo = np.concatenate([np.where(surge_side, np.minimum(i + 1, GRID_SIZE - 1), np.maximum(i - 1, 0)),
                         np.zeros(cb.size, int), np.full(sb.size, GRID_SIZE - 1)])
    hi = np.concatenate([np.where(surge_side, i - 1, i + 1),
                         np.ones(cb.size, int), np.full(sb.size, GRID_SIZE - 2)])
    # Columns 0-3 of a row are (x0, dx, y0, dy) of its choke half, columns
    # 2-5 those of its mirrored surge half; likewise the point rows.
    halves = np.stack([m_zs, dm, pi_ch, dpi, m_zs, dm], axis=1)
    x0, dx, y0, dy = halves[b[:, None], 2 * mirror[:, None] + np.arange(4)].T
    p, q = np.stack([m, pi, m])[mirror + np.arange(2)[:, None], j]
    flat = np.stack([v, w])
    fa, fb = _refine(flat[mirror, b, lo], flat[mirror, b, hi], cur[b], x0, dx, y0, dy, p, q)
    fx = np.where(mirror, fb, fa)
    fy = np.where(mirror, fa, fb)
    d2 = (fx - m[j]) ** 2 + (fy - pi[j]) ** 2

    # The first nb * n brackets are one per pair; each end follows with at
    # most one cell per pair.
    out = [best_x.ravel(), best_y.ravel(), best_d2.ravel()]
    owner = b * n + j
    for part in (slice(0, nb * n), slice(nb * n, nb * n + cb.size), slice(nb * n + cb.size, None)):
        better = d2[part] < out[2][owner[part]]
        dest = owner[part][better]
        for o, val in zip(out, (fx, fy, d2)):
            o[dest] = val[part][better]
    return tuple(o.reshape(nb, n) for o in out)


def _ortho_d2_batch(bmat: np.ndarray, m: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """(B, N) squared orthogonal distances for a batch of betas."""
    return _foot_points(bmat, m, pi)[2]


def nearest_point_on_curve(beta: BetaVector, p: OperatingPoint) -> tuple[OperatingPoint, float]:
    """Nearest curve point to p and the squared Euclidean distance."""
    x, y, d2 = _foot_points(beta.as_array()[None, :], np.array([p.m_dot]), np.array([p.pi]))
    return OperatingPoint(float(x[0, 0]), float(y[0, 0])), float(d2[0, 0])


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
