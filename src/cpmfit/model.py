"""Speedline geometry: the superellipse model and the direct algebraic conic fit.

A speedline is modelled as the decreasing quarter branch of a superellipse
running from the surge point (m_zs, pi_zs) down to the choke point
(m_ch, pi_ch), with a curvature exponent controlling how rectangular the
corner is (2 = quarter ellipse).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, NoEllipseError

CUR_MIN = 1.05

# Relative tolerance (w.r.t. the parameter span) for domain checks.
DOMAIN_RTOL = 1e-12

# Relative tolerance within which two speeds belong to one speedline.
SPEED_TOLERANCE = 1e-6


def same_speed(speed: float, ref: float, tol: float = SPEED_TOLERANCE) -> bool:
    """True when speed lies within the relative tolerance tol of the reference speed."""
    return abs(speed - ref) <= tol * max(1.0, abs(ref))


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name}: non-finite value {v!r}")


@dataclass(frozen=True)
class OperatingPoint:
    """One measured (mass flow, pressure ratio) pair, normalized units."""

    m_dot: float
    pi: float

    def __post_init__(self):
        _require_finite("OperatingPoint", self.m_dot, self.pi)


@dataclass(frozen=True)
class Speedline:
    """Ordered measurements at one rotational speed.

    Points must be sorted ascending by mass flow with no duplicate abscissae;
    the minimum point count for a meaningful fit is enforced at fit time.
    """

    speed: float
    points: tuple[OperatingPoint, ...]

    def __post_init__(self):
        _require_finite("Speedline.speed", self.speed)
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("Speedline needs at least one point")
        m = [p.m_dot for p in pts]
        for a, b in zip(m, m[1:]):
            if not a < b:
                raise ValueError(
                    f"Speedline points must be strictly increasing in m_dot "
                    f"(speed {self.speed}: {a} followed by {b})"
                )

    def m_array(self) -> np.ndarray:
        return np.array([p.m_dot for p in self.points], dtype=float)

    def pi_array(self) -> np.ndarray:
        return np.array([p.pi for p in self.points], dtype=float)


@dataclass(frozen=True)
class CompressorMap:
    """A labeled collection of speedlines (one compressor performance map)."""

    id: str
    type_label: str
    speedlines: tuple[Speedline, ...]

    def __post_init__(self):
        lines = tuple(self.speedlines)
        object.__setattr__(self, "speedlines", lines)
        if not lines:
            raise ValueError("CompressorMap needs at least one speedline")
        speeds = [sl.speed for sl in lines]
        for a, b in zip(speeds, speeds[1:]):
            if not a < b:
                raise ValueError("speedline speeds must be strictly increasing")

    def speeds(self) -> list[float]:
        return [sl.speed for sl in self.speedlines]


@dataclass(frozen=True)
class BetaVector:
    """Five-parameter superellipse encoding of one speedline.

    Ordering invariants: m_ch > m_zs (flow increases toward choke) and
    pi_zs > pi_ch (pressure ratio falls toward choke).
    """

    m_zs: float
    pi_zs: float
    m_ch: float
    pi_ch: float
    cur: float

    def __post_init__(self):
        _require_finite("BetaVector", self.m_zs, self.pi_zs, self.m_ch, self.pi_ch, self.cur)
        if not self.m_ch > self.m_zs:
            raise ValueError(f"require m_ch > m_zs, got {self.m_ch} <= {self.m_zs}")
        if not self.pi_zs > self.pi_ch:
            raise ValueError(f"require pi_zs > pi_ch, got {self.pi_zs} <= {self.pi_ch}")
        if self.cur < CUR_MIN:
            raise ValueError(f"require cur >= {CUR_MIN}, got {self.cur}")

    @classmethod
    def from_array(cls, x) -> "BetaVector":
        x = np.asarray(x, dtype=float)
        return cls(float(x[0]), float(x[1]), float(x[2]), float(x[3]), float(x[4]))

    def as_array(self) -> np.ndarray:
        return np.array([self.m_zs, self.pi_zs, self.m_ch, self.pi_ch, self.cur])


def _invariant_violation(x: np.ndarray) -> float:
    """-1.0 when the 5 values form a valid BetaVector, else the total violation magnitude."""
    if not np.all(np.isfinite(x)):
        return math.inf
    v = 0.0
    bad = False
    if x[2] <= x[0]:
        v += x[0] - x[2]
        bad = True
    if x[1] <= x[3]:
        v += x[3] - x[1]
        bad = True
    if x[4] < CUR_MIN:
        v += CUR_MIN - x[4]
        bad = True
    return v if bad else -1.0


@dataclass(frozen=True)
class ConicCoefficients:
    """General conic a x^2 + b xy + c y^2 + d x + e y + f = 0, unit-norm scale."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        v = self.as_array()
        _require_finite("ConicCoefficients", *v)
        if 4.0 * self.a * self.c - self.b * self.b <= 0.0:
            raise ValueError("coefficients do not describe an ellipse (4ac - b^2 <= 0)")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"coefficient vector must have unit norm, got {n}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f])

    def algebraic_residual(self, points) -> float:
        """Sum of squared algebraic residuals over the given points."""
        x, y = _points_to_xy(points)
        r = (self.a * x * x + self.b * x * y + self.c * y * y
             + self.d * x + self.e * y + self.f)
        return float(np.sum(r * r))


def _points_to_xy(points) -> tuple[np.ndarray, np.ndarray]:
    """Float (x, y) arrays from an (x, y) pair of sequences or a sequence of OperatingPoint."""
    if isinstance(points, tuple) and len(points) == 2 and not isinstance(points[0], OperatingPoint):
        return np.asarray(points[0], float), np.asarray(points[1], float)
    x = np.array([p.m_dot for p in points], dtype=float)
    y = np.array([p.pi for p in points], dtype=float)
    return x, y


# ---------------------------------------------------------------------------
# Superellipse evaluation


def _explicit_branch(beta: BetaVector, x, pressure: bool) -> tuple[np.ndarray, int]:
    """The curve as an explicit function of one coordinate, and its domain misses.

    pressure=True maps mass flow to pressure ratio, False pressure ratio to
    mass flow.  Returns y = y_lo + (y_hi - y_lo)(1 - u^cur)^(1/cur) for the
    normalized coordinate u of x, clipped into [0, 1], and the count of
    values whose u lies outside [0, 1] by more than DOMAIN_RTOL.
    """
    if pressure:
        x_lo, x_hi, y_lo, y_hi = beta.m_zs, beta.m_ch, beta.pi_ch, beta.pi_zs
    else:
        x_lo, x_hi, y_lo, y_hi = beta.pi_ch, beta.pi_zs, beta.m_zs, beta.m_ch
    u = (x - x_lo) / (x_hi - x_lo)
    out = int(np.sum((u < -DOMAIN_RTOL) | (u > 1.0 + DOMAIN_RTOL)))
    u = np.clip(u, 0.0, 1.0)
    return y_lo + (y_hi - y_lo) * (1.0 - u ** beta.cur) ** (1.0 / beta.cur), out


def pressure_at(beta: BetaVector, m_dot):
    """Pressure ratio on the curve at the given mass flow(s).

    Accepts a scalar or array; raises DomainError if any value lies outside
    [m_zs, m_ch] by more than DOMAIN_RTOL relative to the flow span.
    """
    pi, out = _explicit_branch(beta, np.asarray(m_dot, dtype=float), True)
    if out:
        raise DomainError(f"m_dot outside [{beta.m_zs}, {beta.m_ch}]")
    return float(pi) if np.isscalar(m_dot) else pi


def massflow_at(beta: BetaVector, pi):
    """Mass flow on the curve at the given pressure ratio(s); inverse of pressure_at."""
    m, out = _explicit_branch(beta, np.asarray(pi, dtype=float), False)
    if out:
        raise DomainError(f"pi outside [{beta.pi_ch}, {beta.pi_zs}]")
    return float(m) if np.isscalar(pi) else m


def implicit_residual(beta: BetaVector, p: OperatingPoint) -> float:
    """|u|^cur + |v|^cur - 1 for the normalized coordinates of the point.

    Zero iff the point lies on the curve; defined for all finite points.
    """
    u = (p.m_dot - beta.m_zs) / (beta.m_ch - beta.m_zs)
    v = (p.pi - beta.pi_ch) / (beta.pi_zs - beta.pi_ch)
    return abs(u) ** beta.cur + abs(v) ** beta.cur - 1.0


def _curve_xy_raw(bmat: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parametric curve points for a (B, 5) batch of betas; t broadcasts to (B, K)."""
    e = 2.0 / bmat[:, 4:5]
    # Snap rounding residue at the endpoints so t=pi/2 lands exactly on surge.
    c = np.cos(t)
    s = np.sin(t)
    c = np.where(np.abs(c) < 1e-15, 0.0, np.maximum(c, 0.0))
    s = np.where(np.abs(s) < 1e-15, 0.0, np.maximum(s, 0.0))
    m = bmat[:, 0:1] + (bmat[:, 2:3] - bmat[:, 0:1]) * c ** e
    pi = bmat[:, 3:4] + (bmat[:, 1:2] - bmat[:, 3:4]) * s ** e
    return m, pi


def curve_xy(beta: BetaVector, t) -> tuple[np.ndarray, np.ndarray]:
    """Parametric curve point(s) for t in [0, pi/2]; t=0 is choke, t=pi/2 surge."""
    t = np.asarray(t, dtype=float)
    m, pi = _curve_xy_raw(beta.as_array()[None, :], t.reshape(1, -1))
    return m.reshape(t.shape), pi.reshape(t.shape)


def sample_curve(beta: BetaVector, n: int) -> list[OperatingPoint]:
    """n parametric samples ordered from choke to surge (n >= 2)."""
    if n < 2:
        raise ValueError("sample_curve needs n >= 2")
    t = np.linspace(0.0, math.pi / 2.0, n)
    m, pi = curve_xy(beta, t)
    return [OperatingPoint(float(a), float(b)) for a, b in zip(m, pi)]


# ---------------------------------------------------------------------------
# Direct least-squares conic fit (generalized eigenvalue formulation)


def fit_direct_conic(points) -> ConicCoefficients:
    """Fit an ellipse to >= 6 points by constrained algebraic least squares.

    Solves the generalized eigenproblem S a = lambda C a with the ellipse
    constraint 4ac - b^2 = 1, using the numerically stable 3x3 block
    reduction of the scatter matrix.  Data are centered and scaled to unit
    RMS radius first and the coefficients mapped back.
    """
    x, y = _points_to_xy(points)
    n = x.size
    if n < 6:
        raise DegenerateInputError(f"conic fit needs >= 6 points, got {n}")
    if np.linalg.matrix_rank(np.column_stack([x, y, np.ones(n)])) < 3:
        raise DegenerateInputError("points are collinear")

    # Condition the problem: center and scale to unit RMS radius.
    x0, y0 = float(np.mean(x)), float(np.mean(y))
    xs, ys = x - x0, y - y0
    s = math.sqrt(float(np.mean(xs * xs + ys * ys)))
    if s == 0.0:
        raise DegenerateInputError("all points coincide")
    xs /= s
    ys /= s

    d1 = np.column_stack([xs * xs, xs * ys, ys * ys])
    d2 = np.column_stack([xs, ys, np.ones(n)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t_mat = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInputError("rank-deficient scatter matrix") from exc
    m = s1 + s2 @ t_mat
    # Premultiply by the inverse of the 3x3 ellipse-constraint block.
    m = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    if not np.all(np.isfinite(m)):
        raise DegenerateInputError("rank-deficient scatter matrix")

    w, v = np.linalg.eig(m)
    admissible = []
    for k in range(3):
        a1 = np.real(v[:, k])
        cond = 4.0 * a1[0] * a1[2] - a1[1] ** 2
        if cond > 0.0:
            admissible.append(a1)
    if not admissible:
        raise NoEllipseError("no eigenvector satisfies 4ac - b^2 > 0")
    a1 = admissible[0]
    a2 = t_mat @ a1
    a_s, b_s, c_s, d_s, e_s, f_s = (*a1, *a2)

    # Undo the normalization x' = (x - x0)/s, y' = (y - y0)/s.
    a = a_s / (s * s)
    b = b_s / (s * s)
    c = c_s / (s * s)
    d = (d_s * s - 2.0 * a_s * x0 - b_s * y0) / (s * s)
    e = (e_s * s - 2.0 * c_s * y0 - b_s * x0) / (s * s)
    f = (f_s * s * s + a_s * x0 * x0 + b_s * x0 * y0 + c_s * y0 * y0
         - d_s * s * x0 - e_s * s * y0) / (s * s)

    vec = np.array([a, b, c, d, e, f])
    vec /= np.linalg.norm(vec)
    if vec[0] < 0:
        vec = -vec
    return ConicCoefficients(*(float(v_) for v_ in vec))


def conic_geometry(conic: ConicCoefficients) -> tuple[float, float, float, float, float]:
    """Center (cx, cy), semi-axes (major, minor) and rotation angle of the ellipse."""
    a, b, c, d, e, f = conic.as_array()
    den = 4.0 * a * c - b * b
    cx = (b * e - 2.0 * c * d) / den
    cy = (b * d - 2.0 * a * e) / den
    # Value of the quadratic form at the center.
    fc = f + a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy
    mat = np.array([[a, b / 2.0], [b / 2.0, c]]) / (-fc)
    evals = np.linalg.eigvalsh(mat)
    if np.any(evals <= 0):
        raise NoEllipseError("conic has no real ellipse geometry")
    axes = 1.0 / np.sqrt(evals)
    angle = 0.5 * math.atan2(b, a - c)
    return cx, cy, float(axes.max()), float(axes.min()), angle
