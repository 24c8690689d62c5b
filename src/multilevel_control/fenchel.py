"""Primal side of the duality: minimize the integrated conjugate penalization
subject to exact steering of the state to zero, discretized on the dual
problem's quadrature grid.

The discrete problem is a linear program (the conjugate is piecewise linear
with box domain, the steering constraint is linear), solved exactly with
HiGHS in epigraph form.  It is solved independently of the dual minimizer,
so the duality gap and the optimality fraction are checks of that minimizer
rather than restatements of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .dual import DualProblem, eval_functional
from .pwl import conjugate

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


class InfeasiblePrimalError(RuntimeError):
    """The terminal constraint cannot be met with controls confined to the
    conjugate's domain (the initial state violates the necessary norm bound
    sigma_bar * ||e^{-tau A} B||_{L^2})."""


@dataclass(frozen=True)
class DiscretePrimal:
    """Node times/weights, steering map G (N x nK), right-hand side c and
    per-channel conjugate penalizations with their box domains."""

    times: np.ndarray
    weights: np.ndarray
    G: np.ndarray
    c: np.ndarray
    conjugates: tuple
    lower: np.ndarray
    upper: np.ndarray

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


def build_discrete_primal(prob: DualProblem) -> DiscretePrimal:
    if not prob.kind.penalized:
        raise ValueError("the discrete primal needs a penalized dual problem")
    n = prob.grid.n
    K = prob.channels
    W = prob.grid.weights[:, None, None] * prob.rows  # (n, K, N)
    G = W.reshape(n * K, -1).T
    conjugates = tuple(conjugate(pen) for pen in prob.penalizations)
    lower = np.empty(n * K)
    upper = np.empty(n * K)
    for ch, conj in enumerate(conjugates):
        lo, hi = conj.domain
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("conjugate domain must be a bounded interval")
        idx = np.arange(ch, n * K, K)
        lower[idx] = lo
        upper[idx] = hi
    return DiscretePrimal(
        times=prob.grid.nodes,
        weights=prob.grid.weights,
        G=G,
        c=-prob.drift,
        conjugates=conjugates,
        lower=lower,
        upper=upper,
    )


def _objective(dp: DiscretePrimal, v_flat: np.ndarray) -> float:
    v = v_flat.reshape(dp.n, dp.channels)
    total = 0.0
    for ch, conj in enumerate(dp.conjugates):
        total += float(dp.weights @ conj.value(np.clip(v[:, ch], *conj.domain)))
    return total


def _infeasible_message(dp: DiscretePrimal) -> str:
    sigma_bar = max(
        max(abs(conj.domain[0]), abs(conj.domain[1])) for conj in dp.conjugates
    )
    norm_c = float(np.linalg.norm(dp.c))
    # ||G||-based reachability radius of the discretized steering map
    radius = sigma_bar * float(np.abs(dp.G).sum(axis=1).max())
    return (
        "terminal constraint unreachable with node controls confined to the "
        f"conjugate domain (level magnitudes capped at {sigma_bar:g}): "
        f"||e^(TA) x0|| = {norm_c:g}; compare the necessary bound "
        f"sigma_bar * ||e^(-tau A) B||_L2 from the solvable-set analysis "
        f"(crude reachability radius here {radius:g})"
    )


def solve_primal(dp: DiscretePrimal) -> PrimalSolution:
    """Solve the discrete primal exactly as a linear program with HiGHS.

    Each node control v gets an epigraph variable bounded below by every
    affine piece of its conjugate.  Infeasibility (initial state outside the
    reachable set under the level bound) raises
    :class:`InfeasiblePrimalError`.
    """
    n, K = dp.n, dp.channels
    nv = n * K
    rows_i: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []
    r = 0
    for ch, conj in enumerate(dp.conjugates):
        for a_j, c_j in zip(conj.slopes, conj.intercepts):
            for i in range(n):
                col_v = i * K + ch
                col_t = nv + i * K + ch
                rows_i += [r, r]
                cols += [col_v, col_t]
                data += [a_j, -1.0]
                rhs.append(-c_j)
                r += 1
    A_ub = sp.csr_matrix((data, (rows_i, cols)), shape=(r, 2 * nv))
    b_ub = np.asarray(rhs)
    A_eq = sp.hstack([sp.csr_matrix(dp.G), sp.csr_matrix((dp.G.shape[0], nv))]).tocsr()
    obj = np.concatenate([np.zeros(nv), np.repeat(dp.weights, K)])
    bounds = [(lo, hi) for lo, hi in zip(dp.lower, dp.upper)] + [(None, None)] * nv
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=dp.c, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasiblePrimalError(_infeasible_message(dp))
    if res.status != 0:
        raise RuntimeError(f"primal linear program failed: {res.message}")
    v = res.x[:nv]
    residual = float(np.linalg.norm(dp.G @ v - dp.c))
    return PrimalSolution(
        v=v.reshape(n, K),
        objective=_objective(dp, v),
        residual=residual,
        iterations=int(res.nit),
    )


def duality_gap(v, p_T_star, prob: DualProblem) -> GapReport:
    """Primal objective plus dual objective, which vanishes at optimality.

    The sign convention follows min primal = -(min dual); both addends are
    returned alongside the gap.  ``v`` must live on the problem's grid.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v.reshape(-1, prob.channels)
    if v.shape != (prob.grid.n, prob.channels):
        raise ValueError(
            f"primal control has shape {v.shape}, expected {(prob.grid.n, prob.channels)}"
        )
    w = prob.grid.weights
    primal = 0.0
    for ch, pen in enumerate(prob.penalizations):
        conj = conjugate(pen)
        primal += float(w @ conj.value(np.clip(v[:, ch], *conj.domain)))
    dual = eval_functional(prob, p_T_star)
    return GapReport(gap=primal + dual, primal_value=primal, dual_value=dual)


def optimality_fraction(v, p_T_star, prob: DualProblem, slack: float = 1e-6) -> float:
    """Fraction of nodes where B^T p*(t_i) lies in the conjugate's
    subdifferential at the primal control value; ``slack`` widens both the
    breakpoint and domain-end snapping and the membership test."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v.reshape(-1, prob.channels)
    q = prob.adjoint_observations(p_T_star)
    ok = 0
    for ch, pen in enumerate(prob.penalizations):
        conj = conjugate(pen)
        lo, hi = conj.slope_bounds(np.clip(v[:, ch], *conj.domain), slack)
        ok += int(np.count_nonzero((lo - slack <= q[:, ch]) & (q[:, ch] <= hi + slack)))
    return ok / (prob.grid.n * prob.channels)
