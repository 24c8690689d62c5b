"""Primal side of the duality: minimize the integrated conjugate penalization
subject to exact steering of the state to zero, discretized on the dual
problem's quadrature grid.

The discrete problem is a linear program (the conjugate is piecewise linear
with box domain, the steering constraint is linear), solved exactly with
HiGHS in incremental form: one bounded variable per node and conjugate
piece, and one equality row per state.  It is solved independently of the
dual minimizer, so the duality gap and the optimality fraction are checks of
that minimizer rather than restatements of it.  HiGHS is imported by the
first LP (:func:`linprog`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualProblem, eval_functional, moment_weights

__all__ = [
    "InfeasiblePrimalError",
    "DiscretePrimal",
    "PrimalSolution",
    "GapReport",
    "build_discrete_primal",
    "solve_primal",
    "duality_gap",
    "optimality_fraction",
]

# optimality_fraction's widening of the breakpoint and domain-end snapping
# and of the membership test
OPTIMALITY_SLACK = 1e-6


class InfeasiblePrimalError(RuntimeError):
    """The terminal constraint cannot be met with node controls confined to
    the conjugates' domains.  For the continuous problem with one channel,
    |u| <= sigma_bar steers x0 only if
    ||x0|| <= sigma_bar * sqrt(T) * ||e^{-tau A} B||_{L^2(0,T)}
    (:func:`~.solvable.solvable_bound`)."""


@dataclass(frozen=True)
class DiscretePrimal:
    """Node times/weights, steering map G (N x nK), right-hand side c and
    per-channel conjugate penalizations with their box domains."""

    times: np.ndarray
    weights: np.ndarray
    G: np.ndarray
    c: np.ndarray
    conjugates: tuple

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def channels(self) -> int:
        return len(self.conjugates)


@dataclass(frozen=True)
class PrimalSolution:
    v: np.ndarray  # (n, K) node control values
    objective: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class GapReport:
    gap: float
    primal_value: float
    dual_value: float


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: HiGHS loads
    only in a process that solves an LP."""
    from scipy.optimize import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def build_discrete_primal(prob: DualProblem) -> DiscretePrimal:
    if not prob.kind.penalized:
        raise ValueError("the discrete primal needs a penalized dual problem")
    n = prob.grid.n
    K = prob.channels
    W = prob.grid.weights[:, None, None] * prob.rows  # (n, K, N)
    G = W.reshape(n * K, -1).T
    conjugates = prob.conjugates
    if not all(np.isfinite(conj.domain).all() for conj in conjugates):
        raise ValueError("conjugate domain must be a bounded interval")
    return DiscretePrimal(
        times=prob.grid.nodes,
        weights=prob.grid.weights,
        G=G,
        c=-prob.drift,
        conjugates=conjugates,
    )


def _primal_value(weights, conjugates, v: np.ndarray) -> float:
    """Sum over channels of the quadrature of w * phi*_ch(v) at (n, K) node
    values ``v``, clipped to each conjugate's domain."""
    total = 0.0
    for ch, conj in enumerate(conjugates):
        total += float(weights @ conj.value(np.clip(v[:, ch], *conj.domain)))
    return total


def _node_values(v, prob: DualProblem) -> np.ndarray:
    """``v`` as the (n, K) node values on the problem's grid."""
    v = np.asarray(v, dtype=float)
    shape = (prob.grid.n, prob.channels)
    if v.shape not in (shape, (shape[0] * shape[1],)):
        raise ValueError(f"primal control has shape {v.shape}, expected {shape}")
    return v.reshape(shape)


def _infeasible_message(dp: DiscretePrimal) -> str:
    sigma_bar = max(
        max(abs(conj.domain[0]), abs(conj.domain[1])) for conj in dp.conjugates
    )
    # a node control bounded by sigma_bar moves coordinate j of G v by at
    # most sigma_bar times the l1 norm of row j of G
    reach = sigma_bar * float(np.abs(dp.G).sum(axis=1).max())
    return (
        "terminal constraint unreachable with node controls confined to the "
        f"conjugate domain (level magnitudes capped at {sigma_bar:g}): "
        f"the largest coordinate magnitude of e^(TA) x0 is {float(np.abs(dp.c).max()):g} and "
        f"the largest per-coordinate reach of the discretized steering map is {reach:g}; "
        "with one channel, steering needs ||x0|| <= sigma_bar * sqrt(T) * ||e^(-tau A) B||_L2(0,T)"
    )


def solve_primal(dp: DiscretePrimal) -> PrimalSolution:
    """Solve the discrete primal exactly as a linear program with HiGHS.

    A node control is written v = lo + sum_j d_j with d_j in [0, width_j],
    one increment per piece of its conjugate on the domain [lo, hi]; each
    increment costs the piece's slope.  The slopes increase, so an optimum
    fills the pieces in order and the LP cost is the quadrature of phi*(v)
    up to a constant.  The only rows are the N steering equalities.
    Infeasibility (initial state outside the reachable set under the level
    bound) raises :class:`InfeasiblePrimalError`.

    The optimum is made unique in a second stage: every increment whose
    reduced cost exceeds 1e-9 times the largest cost is fixed at the
    bound it holds, which leaves the optimal face, and when more than N
    increments stay free the moment of :func:`~.dual.moment_weights`,
    summed over every channel's increments, is minimized over that face,
    the moment by which :func:`~.extract.extract_control` selects its
    degenerate staircase.
    """
    n, K = dp.n, dp.channels
    lo = np.array([conj.domain[0] for conj in dp.conjugates])
    cols, cost, width = [], [], []
    for ch, conj in enumerate(dp.conjugates):
        knots = np.concatenate([[lo[ch]], conj.breakpoints, [conj.domain[1]]])
        # column i * pieces + j is the increment of node i on piece j
        cols.append(np.repeat(dp.G[:, ch::K], conj.pieces, axis=1))
        cost.append(np.outer(dp.weights, conj.slopes).ravel())
        width.append(np.tile(np.diff(knots), n))
    cost, width = np.concatenate(cost), np.concatenate(width)
    bounds = np.column_stack([np.zeros_like(width), width])
    lp = dict(A_eq=np.hstack(cols), b_eq=dp.c - dp.G @ np.tile(lo, n), method="highs")
    res = linprog(cost, bounds=bounds, **lp)
    iterations = int(res.nit)
    if res.status == 0:
        tol = 1e-9 * float(np.abs(cost).max())
        at_lower, at_upper = res.lower.marginals > tol, res.upper.marginals < -tol
        if np.count_nonzero(~(at_lower | at_upper)) > dp.c.size:
            bounds[at_lower, 1], bounds[at_upper, 0] = 0.0, width[at_upper]
            moment = moment_weights(dp.times, dp.weights)
            moment = np.concatenate([np.repeat(moment, conj.pieces) for conj in dp.conjugates])
            res = linprog(moment, bounds=bounds, **lp)
            iterations += int(res.nit)
    if res.status == 2:
        raise InfeasiblePrimalError(_infeasible_message(dp))
    if res.status != 0:
        raise RuntimeError(f"primal linear program failed: {res.message}")
    d = np.split(res.x, np.cumsum([n * conj.pieces for conj in dp.conjugates])[:-1])
    v = lo + np.column_stack([d_ch.reshape(n, -1).sum(axis=1) for d_ch in d])
    return PrimalSolution(
        v=v,
        objective=_primal_value(dp.weights, dp.conjugates, v),
        residual=float(np.linalg.norm(dp.G @ v.ravel() - dp.c)),
        iterations=iterations,
    )


def duality_gap(v, p_T_star, prob: DualProblem) -> GapReport:
    """Primal objective plus dual objective, which vanishes at optimality.

    The sign convention follows min primal = -(min dual); both addends are
    returned alongside the gap.  ``v`` must live on the problem's grid.
    """
    v = _node_values(v, prob)
    primal = _primal_value(prob.grid.weights, prob.conjugates, v)
    dual = eval_functional(prob, p_T_star)
    return GapReport(gap=primal + dual, primal_value=primal, dual_value=dual)


def optimality_fraction(v, p_T_star, prob: DualProblem) -> float:
    """Fraction of nodes where B^T p*(t_i) lies in the conjugate's
    subdifferential at the primal control value, both within
    ``OPTIMALITY_SLACK``."""
    v = _node_values(v, prob)
    q = prob.adjoint_observations(p_T_star)
    ok = 0
    for ch, conj in enumerate(prob.conjugates):
        lo, hi = conj.slope_bounds(np.clip(v[:, ch], *conj.domain), OPTIMALITY_SLACK)
        ok += int(np.count_nonzero((lo - OPTIMALITY_SLACK <= q[:, ch]) & (q[:, ch] <= hi + OPTIMALITY_SLACK)))
    return ok / (prob.grid.n * prob.channels)
