"""Shared fixtures, synthetic data generators and brute-force oracles."""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cpmfit import BetaVector, CompressorMap, OperatingPoint, Speedline, sample_curve
from cpmfit.metrics import GRID_SIZE
from cpmfit.model import _curve_xy_raw, curve_xy

GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def brute_force_nearest_d2(beta, point, n=100_000, refine=True):
    """Independent projection oracle: dense parametric scan, optional Brent polish.

    The raw scan alone is resolution-limited near the curve endpoints
    (the parameter derivative is unbounded there for cur > 2), so the
    scan's bracketing cell is polished with an independent 1-D minimizer
    and the exact endpoints are always considered.
    """
    t = np.linspace(0.0, math.pi / 2.0, n)
    cx, cy = curve_xy(beta, t)
    d2 = (cx - point.m_dot) ** 2 + (cy - point.pi) ** 2
    i = int(np.argmin(d2))
    best = float(d2[i])
    if refine:

        def f(tt):
            x, y = curve_xy(beta, float(tt))
            return (x - point.m_dot) ** 2 + (y - point.pi) ** 2

        # Polish the argmin cell and both end cells: the parameter
        # derivative is unbounded at the endpoints, so a shallow basin
        # there can hide below the scan resolution.
        lo_i = [max(i - 1, 0), 0, n - 2]
        for j in lo_i:
            res = minimize_scalar(f, bounds=(t[j], t[min(j + 2, n - 1)]),
                                  method="bounded", options={"xatol": 1e-12})
            best = min(best, float(res.fun))
    return min(best, float(d2[0]), float(d2[-1]))


def golden_nearest_d2(bmat, m, pi):
    """Reference projection: (B, N) d2 by grid bracketing and golden-section search.

    The former library kernel, kept for comparison.  The argmin cell pair of
    the GRID_SIZE-node parameter grid and both end cells are each narrowed
    below GOLDEN_TOL in t, then the best of the three and the exact
    endpoints is kept.
    """
    n, nb = m.size, bmat.shape[0]
    tg = np.linspace(0.0, math.pi / 2.0, GRID_SIZE)
    cx, cy = _curve_xy_raw(bmat, tg[None, :])
    idx = np.argmin((cx[:, :, None] - m) ** 2 + (cy[:, :, None] - pi) ** 2, axis=1)
    a = np.concatenate([tg[np.maximum(idx - 1, 0)], np.zeros((nb, n)),
                        np.full((nb, n), tg[-2])], axis=1)
    b = np.concatenate([tg[np.minimum(idx + 1, GRID_SIZE - 1)], np.full((nb, n), tg[1]),
                        np.full((nb, n), tg[-1])], axis=1)
    mm, pp = np.tile(m, 3), np.tile(pi, 3)
    iters = math.ceil(math.log(GOLDEN_TOL / (math.pi / (GRID_SIZE - 1))) / math.log(_INVPHI))
    for _ in range(iters):
        h = b - a
        x1, x2 = b - _INVPHI * h, a + _INVPHI * h
        gx, gy = _curve_xy_raw(bmat, np.concatenate([x1, x2], axis=1))
        g = (gx - np.tile(mm, 2)) ** 2 + (gy - np.tile(pp, 2)) ** 2
        left = g[:, :3 * n] < g[:, 3 * n:]
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
    cand = np.concatenate([0.5 * (a + b), np.zeros((nb, n)), np.full((nb, n), math.pi / 2.0)],
                          axis=1)
    gx, gy = _curve_xy_raw(bmat, cand)
    d2 = (gx - np.tile(m, 5)) ** 2 + (gy - np.tile(pi, 5)) ** 2
    return d2.reshape(nb, 5, n).min(axis=1)


def speedline_from_beta(beta, n_points, speed, noise=0.0, rng=None, trim=0.0):
    """Sample a synthetic measured speedline from a known beta (the oracle).

    `trim` drops a fraction of the parameter range at both ends; the curve
    has a vertical tangent at choke, so pressure evaluation exactly at the
    endpoint is ill-conditioned and real measurements stop short of it.
    """
    if trim:
        t = np.linspace(trim * math.pi / 2, (1.0 - trim) * math.pi / 2, n_points)
        m, pi = curve_xy(beta, t)
    else:
        pts = sample_curve(beta, n_points)
        m = np.array([p.m_dot for p in pts])
        pi = np.array([p.pi for p in pts])
    if noise:
        rng = rng if rng is not None else np.random.default_rng(0)
        pi = pi + rng.normal(0.0, noise, size=pi.shape)
    order = np.argsort(m)
    return Speedline(speed, tuple(
        OperatingPoint(float(m[i]), float(pi[i])) for i in order))


def point_near_box(rng, beta, size=None, margin=0.3):
    """(m, pi) drawn uniformly from the curve's box widened by margin of its span on every side."""
    dm = beta.m_ch - beta.m_zs
    dpi = beta.pi_zs - beta.pi_ch
    return (rng.uniform(beta.m_zs - margin * dm, beta.m_ch + margin * dm, size),
            rng.uniform(beta.pi_ch - margin * dpi, beta.pi_zs + margin * dpi, size))


def random_beta(rng, cur_range=(2.0, 5.0)):
    """Beta drawn from a default_bounds-style box around a unit-ish data window."""
    m_lo = rng.uniform(0.0, 0.3)
    m_hi = m_lo + rng.uniform(0.4, 1.0)
    pi_lo = rng.uniform(1.0, 1.5)
    pi_hi = pi_lo + rng.uniform(0.5, 2.0)
    cur = rng.uniform(*cur_range)
    return BetaVector(m_lo, pi_hi, m_hi, pi_lo, cur)


def polynomial_beta_map(speeds, coeffs, n_points=15, map_id="synthetic"):
    """Map whose beta components follow given polynomial laws in speed.

    `coeffs` maps each component index 0..4 to ascending-power coefficients
    evaluated on speed normalized to [0, 1] over the given speeds.
    """
    speeds = np.asarray(speeds, dtype=float)
    s = (speeds - speeds.min()) / (speeds.max() - speeds.min())
    lines = []
    for sp, sn in zip(speeds, s):
        vals = [float(np.polynomial.polynomial.polyval(sn, coeffs[j])) for j in range(5)]
        beta = BetaVector(*vals)
        lines.append(speedline_from_beta(beta, n_points, float(sp), trim=0.05))
    return CompressorMap(map_id, "synthetic", tuple(lines))


@pytest.fixture
def quarter_circle():
    return BetaVector(0.0, 1.0, 1.0, 0.0, 2.0)


@pytest.fixture
def default_poly_map():
    coeffs = {
        0: (0.10, 0.10),               # m_zs: linear in normalized speed
        1: (2.0, 0.8, -0.2),           # pi_zs: quadratic
        2: (0.95, 0.25),               # m_ch
        3: (1.1, 0.3, 0.1),            # pi_ch
        4: (3.0, 0.5),                 # cur
    }
    return polynomial_beta_map([250, 300, 350, 400, 450, 500, 550], coeffs)
