"""Global and local optimizers plus the multi-stage speedline fitting pipeline.

The pipeline runs an optional population-based global search (differential
evolution or particle swarm) to seed one local refinement (Nelder-Mead or
projected gradient descent), keeps the better of the two candidates and
validates it.  All solvers are deterministic for a fixed seed.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, FitFailureError
from .metrics import EvalMode, MetricKind, _clamped_prediction, _ortho_d2_batch, _pointwise_summary
from .model import CUR_MIN, BetaVector, Speedline, _invariant_violation, _points_to_xy

PENALTY = 1e12

DE_F = 0.8
DE_CR = 0.9
PSO_OMEGA = 0.729
PSO_C1 = 1.494
PSO_C2 = 1.494

CUR_UPPER = 20.0


class InitStrategy(enum.Enum):
    NONE = "none"
    PSO = "pso"
    DE = "de"


class LocalSolver(enum.Enum):
    NELDER_MEAD = "nm"
    QUASI_NEWTON = "qn"


@dataclass(frozen=True)
class Bounds:
    """Componentwise box for the 5 beta parameters (same order as BetaVector)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != (5,) or hi.shape != (5,):
            raise ValueError("bounds must be 5-vectors")
        if not np.all(lo < hi):
            raise ValueError("require lower < upper componentwise")
        if lo[4] < CUR_MIN:
            raise ValueError(f"cur lower bound must be >= {CUR_MIN}")

    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        s = self.span()
        return bool(np.all(x >= self.lower - tol * s) and np.all(x <= self.upper + tol * s))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


@dataclass(frozen=True)
class FitConfig:
    """Tunables for the fitting pipeline; defaults follow the study setup."""

    init_strategy: InitStrategy = InitStrategy.DE
    local_solver: LocalSolver = LocalSolver.NELDER_MEAD
    metric: MetricKind = MetricKind.ORTHO
    mode: EvalMode = EvalMode.PRESSURE
    de_population: int = 15
    de_max_iters: int = 1000
    pso_particles: int = 100
    pso_iters: int = 50
    local_max_iters: int = 5000
    seed: int = 0
    objective_tol: float = 1e-12
    simplex_tol: float = 1e-10

    def __post_init__(self):
        for name in ("de_population", "de_max_iters", "pso_particles",
                     "pso_iters", "local_max_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class FitResult:
    beta: BetaVector
    objective: float
    metric: MetricKind
    stage_trace: tuple[tuple[str, float], ...]
    used_fallback: bool  # always False: no retry stage; perfbench/tracing.py reads it
    seed: int
    underdetermined: bool = False


# ---------------------------------------------------------------------------
# Objective


def _row_losses(xs: np.ndarray, m: np.ndarray, pi: np.ndarray,
                metric: MetricKind, mode: EvalMode) -> np.ndarray:
    """Loss of each row of a (B, 5) batch of candidate betas against the points.

    A row violating the beta ordering invariants scores PENALTY plus the
    violation magnitude (2 * PENALTY when that is not finite) instead of
    raising, so population methods can traverse infeasible regions; any
    other loss that is not finite scores PENALTY.  The ortho metric
    projects all feasible rows at once; other metrics need no projection.
    """
    losses = []
    feasible = []
    for i, x in enumerate(xs):
        viol = _invariant_violation(x)
        if viol >= 0.0:
            losses.append(PENALTY + (viol if math.isfinite(viol) else PENALTY))
        elif metric is MetricKind.ORTHO:
            losses.append(math.nan)
            feasible.append(i)
        else:
            truth, pred, _ = _clamped_prediction(BetaVector.from_array(x), m, pi, mode)
            losses.append(_pointwise_summary(truth, pred, metric).mean)
    out = np.array(losses)
    if feasible:
        out[feasible] = np.sum(_ortho_d2_batch(xs[feasible], m, pi), axis=1)
    out[~np.isfinite(out)] = PENALTY
    return out


def objective(beta, points, metric: MetricKind = MetricKind.ORTHO,
              mode: EvalMode = EvalMode.PRESSURE) -> float:
    """Scalar loss of a candidate beta (a BetaVector or 5 values) against measured points.

    Infeasible candidates score a large penalty instead of raising; see _row_losses.
    """
    x = beta.as_array() if isinstance(beta, BetaVector) else np.asarray(beta, dtype=float)
    return float(_row_losses(x[None, :], *_points_to_xy(points), metric, mode)[0])


def make_objective_batch(points, metric: MetricKind, mode: EvalMode):
    """Vectorized objective over a (B, 5) batch of candidate betas; row i equals objective(xs[i])."""
    m, pi = _points_to_xy(points)
    return lambda xs: _row_losses(np.asarray(xs, dtype=float), m, pi, metric, mode)


def _bounded(f, bounds: Bounds):
    """Wrap f with a box penalty for solvers without native bound handling."""
    lo, hi = bounds.lower, bounds.upper

    def g(x):
        excess = float(np.sum(np.maximum(lo - x, 0.0)) + np.sum(np.maximum(x - hi, 0.0)))
        if excess > 0.0:
            return PENALTY + excess
        return f(x)

    return g


# ---------------------------------------------------------------------------
# Global optimizers


def _reflect_into(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    below = x < lo
    x = np.where(below, 2.0 * lo - x, x)
    above = x > hi
    x = np.where(above, 2.0 * hi - x, x)
    return np.clip(x, lo, hi)


def _batch_eval(f, f_batch, xs: np.ndarray) -> np.ndarray:
    if f_batch is not None:
        return f_batch(xs)
    return np.array([f(x) for x in xs])


def differential_evolution(f, bounds: Bounds, cfg: FitConfig, seed: int,
                           f_batch=None) -> np.ndarray:
    """DE/rand/1/bin with F=0.8, CR=0.9 and reflection at the box edges."""
    rng = np.random.default_rng(seed)
    lo, hi = bounds.lower, bounds.upper
    npop, dim = cfg.de_population, lo.size
    pop = rng.uniform(lo, hi, size=(npop, dim))
    fit = _batch_eval(f, f_batch, pop)
    for _ in range(cfg.de_max_iters):
        trials = np.empty_like(pop)
        for i in range(npop):
            r1, r2, r3 = rng.choice(npop - 1, size=3, replace=False)
            r1, r2, r3 = (r + (r >= i) for r in (r1, r2, r3))
            mutant = _reflect_into(pop[r1] + DE_F * (pop[r2] - pop[r3]), lo, hi)
            cross = rng.random(dim) < DE_CR
            cross[rng.integers(dim)] = True
            trials[i] = np.where(cross, mutant, pop[i])
        ft = _batch_eval(f, f_batch, trials)
        accept = ft <= fit
        pop[accept] = trials[accept]
        fit[accept] = ft[accept]
        spread = float(np.max(fit) - np.min(fit))
        if spread <= max(cfg.objective_tol, cfg.objective_tol * abs(float(np.min(fit)))):
            break
    return pop[int(np.argmin(fit))].copy()


def particle_swarm(f, bounds: Bounds, cfg: FitConfig, seed: int,
                   f_batch=None) -> np.ndarray:
    """Inertia-weight PSO; velocities clamped to half the box span, positions to the box."""
    rng = np.random.default_rng(seed)
    lo, hi = bounds.lower, bounds.upper
    n, dim = cfg.pso_particles, lo.size
    vmax = 0.5 * (hi - lo)
    pos = rng.uniform(lo, hi, size=(n, dim))
    vel = rng.uniform(-vmax, vmax, size=(n, dim))
    fit = _batch_eval(f, f_batch, pos)
    pbest = pos.copy()
    pbest_f = fit.copy()
    g = int(np.argmin(fit))
    gbest, gbest_f = pos[g].copy(), float(fit[g])
    for _ in range(cfg.pso_iters):
        r1 = rng.random((n, dim))
        r2 = rng.random((n, dim))
        vel = (PSO_OMEGA * vel
               + PSO_C1 * r1 * (pbest - pos)
               + PSO_C2 * r2 * (gbest - pos))
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, lo, hi)
        fit = _batch_eval(f, f_batch, pos)
        improved = fit < pbest_f
        pbest[improved] = pos[improved]
        pbest_f[improved] = fit[improved]
        g = int(np.argmin(pbest_f))
        if pbest_f[g] < gbest_f:
            gbest, gbest_f = pbest[g].copy(), float(pbest_f[g])
    return gbest


# ---------------------------------------------------------------------------
# Local solvers


def nelder_mead(f, x0, bounds: Bounds, cfg: FitConfig) -> np.ndarray:
    """Standard Nelder-Mead simplex (1, 2, 0.5, 0.5 coefficients).

    The initial simplex perturbs x0 componentwise by 5% of the bound span;
    out-of-bounds vertices are handled by the objective's penalty.
    """
    fb = _bounded(f, bounds)
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    step = 0.05 * bounds.span()
    simplex = [x0.copy()]
    for j in range(dim):
        v = x0.copy()
        # Step inward when the outward step would leave the box.
        v[j] += step[j] if v[j] + step[j] <= bounds.upper[j] else -step[j]
        simplex.append(v)
    simplex = np.array(simplex)
    fvals = np.array([fb(v) for v in simplex])

    for _ in range(cfg.local_max_iters):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        diam = float(np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1)))
        if diam < cfg.simplex_tol or fvals[-1] - fvals[0] < cfg.objective_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = fb(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = fb(xe)
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fb(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [fb(v) for v in simplex[1:]]
    best = int(np.argmin(fvals))
    return simplex[best].copy()


def quasi_newton(f, x0, bounds: Bounds, cfg: FitConfig) -> np.ndarray:
    """Projected gradient descent with finite-difference gradients and backtracking."""
    x = bounds.clip(x0)
    fx = f(x)
    span = bounds.span()
    h = 1e-7 * np.maximum(span, 1.0)
    step = 1.0
    for _ in range(cfg.local_max_iters):
        grad = np.empty_like(x)
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] = min(x[j] + h[j], bounds.upper[j])
            xm[j] = max(x[j] - h[j], bounds.lower[j])
            denom = xp[j] - xm[j]
            grad[j] = (f(xp) - f(xm)) / denom if denom > 0 else 0.0
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0 or not math.isfinite(gnorm):
            break
        improved = False
        t = step
        for _ in range(40):
            cand = bounds.clip(x - t * grad / gnorm * span)
            fc = f(cand)
            if fc < fx - 1e-4 * t * gnorm:
                x, fx = cand, fc
                step = min(t * 2.0, 1.0)
                improved = True
                break
            t *= 0.5
        if not improved or t * gnorm < cfg.objective_tol:
            break
    return x


# ---------------------------------------------------------------------------
# Pipeline


def default_bounds(points) -> Bounds:
    """Data-driven parameter box: half-span margins beyond the measured range."""
    m, pi = _points_to_xy(points)
    if m.size < 3:
        raise DegenerateInputError(f"need >= 3 points for bounds, got {m.size}")
    dm = float(np.max(m) - np.min(m))
    dpi = float(np.max(pi) - np.min(pi))
    if dm == 0.0 or dpi == 0.0:
        raise DegenerateInputError("points span a zero range in m_dot or pi")
    lo = np.array([np.min(m) - 0.5 * dm, np.max(pi), np.max(m), np.min(pi) - 0.5 * dpi, CUR_MIN])
    hi = np.array([np.min(m), np.max(pi) + 0.5 * dpi, np.max(m) + 0.5 * dm, np.min(pi), CUR_UPPER])
    return Bounds(lo, hi)


def fit_speedline(line: Speedline, cfg: FitConfig | None = None) -> FitResult:
    """Fit one speedline in two stages, global init then one local refinement, keeping the better.

    The objective is non-increasing along the two-entry stage trace.  Raises
    FitFailureError when the kept candidate scores PENALTY or more, or
    breaks the bounds or the beta invariants.
    """
    cfg = cfg or FitConfig()
    m, pi = line.m_array(), line.pi_array()
    bounds = default_bounds((m, pi))
    fb = make_objective_batch((m, pi), cfg.metric, cfg.mode)

    # objective and the solvers are looked up at call time, so wrappers
    # installed on this module's globals see every call.
    def f(x):
        return objective(x, (m, pi), cfg.metric, cfg.mode)

    if cfg.init_strategy is InitStrategy.DE:
        x0 = differential_evolution(f, bounds, cfg, cfg.seed, f_batch=fb)
        init_name = "de_init"
    elif cfg.init_strategy is InitStrategy.PSO:
        x0 = particle_swarm(f, bounds, cfg, cfg.seed, f_batch=fb)
        init_name = "pso_init"
    else:
        x0 = 0.5 * (bounds.lower + bounds.upper)
        x0[4] = 2.0
        init_name = "midpoint_init"
    f0 = f(x0)

    local = nelder_mead if cfg.local_solver is LocalSolver.NELDER_MEAD else quasi_newton
    x1 = bounds.clip(local(f, x0, bounds, cfg))
    f1 = f(x1)
    best_x, best_f = (x1, f1) if f1 < f0 else (x0, f0)
    trace = ((init_name, f0), (f"local_{cfg.local_solver.value}", best_f))

    if not best_f < PENALTY or not bounds.contains(best_x, tol=1e-9) \
            or _invariant_violation(best_x) >= 0.0:
        raise FitFailureError(
            f"no valid fit for speedline {line.speed} (best objective {best_f})",
            best_x=best_x, best_objective=best_f)

    return FitResult(
        beta=BetaVector.from_array(best_x),
        objective=float(best_f),
        metric=cfg.metric,
        stage_trace=trace,
        used_fallback=False,
        seed=cfg.seed,
        underdetermined=m.size < 5,
    )
