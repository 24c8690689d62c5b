"""Dual functionals over the adjoint datum p_T and their minimization.

Five functional kinds are supported, all of the form

    phi(I(p_T))  +  <e^{TA} x0, p_T>,

one integral term I over [0, T] passed through a scalar map phi.  The
integrand is the sum of the channel penalizations along B^T p for the
penalized kinds and |B^T p|^2 for the quadratic kinds; phi is the identity
(``plain``, ``quadratic``), beta times it (``scaled``, beta > 1) or half its
square (``squared``, ``quadratic_squared``).  The control levels are the
slope phi'(I) times the penalizations' chord slopes.

The quadratic kinds are solved in closed form from the exact Gramian W.
The penalized kinds have piecewise-linear integrands, so their functional
is piecewise smooth and its quadrature subgradient has a resolution floor
at the optimizer's scale.  A short descent on the quadrature functional is
therefore finished by semismooth Newton steps on the exact piecewise
evaluation, whose switching times are refined by bisection and whose
generalized Hessian is read off the same crossings; this drives the true
stationarity residual to the requested tolerance.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .lti import (
    AdjointPropagator,
    LtiSystem,
    adjoint_rows,
    exp_action_integral,
    gramian,
    kalman_rank,
    mat_exp,
    uniform_step,
)
from .pwl import PwlConvex, conjugate

__all__ = [
    "FunctionalKind",
    "QuadratureGrid",
    "OptimizerSettings",
    "DualProblem",
    "SolveStatus",
    "SolveReport",
    "eval_functional",
    "eval_subgradient",
    "subgradient_box",
    "minimize",
]


class FunctionalKind(enum.Enum):
    """A functional kind: which integrand the integral term I integrates
    (:attr:`penalized`) and which scalar map of I it takes (:meth:`outer`)."""

    PLAIN = "plain"
    SCALED = "scaled"
    SQUARED = "squared"
    QUADRATIC = "quadratic"
    QUADRATIC_SQUARED = "quadratic_squared"

    @property
    def penalized(self) -> bool:
        return self in (FunctionalKind.PLAIN, FunctionalKind.SCALED, FunctionalKind.SQUARED)

    @property
    def squared(self) -> bool:
        """Whether the map is I -> I^2 / 2, the only one whose slope depends on I."""
        return self in (FunctionalKind.SQUARED, FunctionalKind.QUADRATIC_SQUARED)

    def outer(self, integral: float, beta: float = 1.0) -> tuple[float, float]:
        """Value and slope of the kind's map at the integral term."""
        if self.squared:
            return 0.5 * integral * integral, integral
        if self is FunctionalKind.SCALED:
            return beta * integral, beta
        return integral, 1.0


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite-trapezoid nodes and weights on [0, T]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.size != weights.size or nodes.size < 2:
            raise ValueError("grid needs matching nodes and weights (>= 2)")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("grid nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        T = nodes[-1] - nodes[0]
        if abs(weights.sum() - T) > 1e-10 * max(1.0, T):
            raise ValueError("quadrature weights must sum to the horizon length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def trapezoid(cls, T: float, n: int = 4000) -> "QuadratureGrid":
        if n < 2:
            raise ValueError("need at least 2 quadrature nodes")
        if not np.isfinite(T):
            raise ValueError(f"the horizon must be finite, got {T}")
        nodes = np.linspace(0.0, T, n)
        w = np.full(n, T / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(nodes, w)

    @property
    def n(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class OptimizerSettings:
    """Descent configuration.

    ``max_iterations`` caps the steps over both phases, quadrature and
    Newton steps, ``gtol`` is the stationarity tolerance on the gradient
    norm, and ``bracket_multiplier`` sets how much denser than the
    quadrature grid the grid is on which the exact evaluation brackets
    level crossings.
    """

    max_iterations: int = 50_000
    gtol: float = 1e-6
    bracket_multiplier: int = 8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.gtol > 0:
            raise ValueError(f"gtol must be > 0, got {self.gtol}")
        if self.bracket_multiplier < 1:
            raise ValueError(f"bracket_multiplier must be >= 1, got {self.bracket_multiplier}")


# Descent constants.  Divergence is certified once the iterate norm passes
# DIVERGENCE_THRESHOLD after DIVERGENCE_WINDOW accepted steps, each a strict
# decrease.  A Newton step solves (H + mu I) d = -g with mu =
# NEWTON_REGULARIZATION (1 + tr H) and takes the largest step 2^-k that meets
# the Armijo condition with constant ARMIJO, found by bisecting k, which the
# convexity of the functional along d allows (see line_search).  A stalled
# iterate is snapped onto the breakpoints its node observations lie within
# SNAP_TOL of (relative).
DIVERGENCE_THRESHOLD = 1e6
DIVERGENCE_WINDOW = 100
NEWTON_REGULARIZATION = 1e-10
ARMIJO = 1e-4
SNAP_TOL = 1e-6


class DualProblem:
    """An LTI system, one penalization per control channel, a functional
    kind and a quadrature grid.

    The construction validates the inputs and forms the terminal drift
    e^{TA} x0, which every kind reads.  The other constants are formed on
    first read, so only by the kinds and outcomes that read them: the node
    rows B^T e^{(T-t_i)A^T} (:attr:`rows`), the Gramian W (:attr:`gram`),
    Psi(T) (:attr:`psi_T`), the channel conjugates (:attr:`conjugates`) and
    the adjoint :attr:`propagator`.  The rows on the denser bracketing grid
    (:meth:`bracket_grid`) are read off the node rows, not formed again.
    Functional values and subgradients are then matrix products.  No
    constant refers back to the problem.
    """

    def __init__(
        self,
        sys: LtiSystem,
        penalizations,
        kind: FunctionalKind | str = FunctionalKind.PLAIN,
        beta: float = 1.0,
        grid: Optional[QuadratureGrid] = None,
        settings: Optional[OptimizerSettings] = None,
    ):
        self.sys = sys
        if isinstance(penalizations, PwlConvex):
            penalizations = [penalizations]
        self.penalizations = list(penalizations)
        kind = FunctionalKind(kind) if not isinstance(kind, FunctionalKind) else kind
        self.kind = kind
        self.beta = float(beta)
        if kind == FunctionalKind.SCALED and not self.beta > 1.0:
            raise ValueError("the scaled kind needs beta > 1")
        if kind.penalized and len(self.penalizations) != sys.channels:
            raise ValueError(
                f"need one penalization per channel: got {len(self.penalizations)} "
                f"for {sys.channels} channels"
            )
        self.grid = grid if grid is not None else QuadratureGrid.trapezoid(sys.T)
        if abs(self.grid.nodes[0]) > 1e-12 or abs(self.grid.nodes[-1] - sys.T) > 1e-9:
            raise ValueError("quadrature grid must cover [0, T]")
        uniform_step(self.grid.nodes)  # the rows need a uniform grid
        self.settings = settings if settings is not None else OptimizerSettings()
        self.drift = mat_exp(sys.A, sys.T) @ sys.x0
        self._bracket = None
        self._primal = {}

    # -- constants, formed on first read -------------------------------------

    @cached_property
    def rows(self) -> np.ndarray:
        """The adjoint rows B^T e^{(T-t_i)A^T} at the quadrature nodes, (n, K, N)."""
        return adjoint_rows(self.sys.A, self.sys.B, self.sys.T, self.grid.nodes)

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gramian W, the integral of e^{sA} B B^T e^{sA^T} over [0, T]."""
        return gramian(self.sys.A, self.sys.B, self.sys.T)

    @cached_property
    def psi_T(self) -> np.ndarray:
        """Psi(T), the integral of e^{sA} B over [0, T], N x K."""
        return exp_action_integral(self.sys.A, self.sys.B, self.sys.T)

    @cached_property
    def conjugates(self) -> tuple:
        """The convex conjugate of each channel's penalization."""
        return tuple(conjugate(pen) for pen in self.penalizations)

    @cached_property
    def propagator(self) -> AdjointPropagator:
        """The map (t, p) -> B^T e^{(T-t)A^T} p at arbitrary times."""
        return AdjointPropagator(self.sys.A, self.sys.B, self.sys.T)

    # -- basic maps ---------------------------------------------------------

    @property
    def channels(self) -> int:
        return self.sys.channels

    def adjoint_observations(self, p_T) -> np.ndarray:
        """B^T p(t_i) at the quadrature nodes, shape (n, K)."""
        p_T = self._check_p(p_T)
        return self.rows @ p_T

    def _check_p(self, p_T) -> np.ndarray:
        p_T = np.asarray(p_T, dtype=float).reshape(-1)
        if p_T.shape[0] != self.sys.dim:
            raise ValueError(f"p_T has length {p_T.shape[0]}, expected {self.sys.dim}")
        return p_T

    def integral_term(self, p_T, q=None) -> float:
        """I(p_T): p^T W p for the quadratic kinds, else its quadrature value,
        for which ``q`` may pass the node observations of p_T."""
        if not self.kind.penalized:
            return float(p_T @ self.gram @ p_T)
        if q is None:
            q = self.adjoint_observations(p_T)
        w = self.grid.weights
        return float(sum(w @ pen.value(q[:, ch]) for ch, pen in enumerate(self.penalizations)))

    def outer_slope(self, integral) -> float:
        """Slope of the kind's map; the callable ``integral`` is evaluated
        only for the squared kinds, whose slope is the integral itself."""
        return self.kind.outer(integral() if self.kind.squared else 0.0, self.beta)[1]

    def bracket_grid(self):
        """The denser uniform grid used to bracket level crossings, mult =
        ``bracket_multiplier`` nodes per quadrature cell, and its adjoint
        rows, (nb, K, N).

        Bracket node i mult + r lies r bracket steps h past quadrature node
        t_i, so by e^{(s+r)A} = e^{sA} e^{rA} its row is ``rows[i]`` times
        e^{-r h A^T}: the mult - 1 sub-step exponentials come from one
        stacked exponential and the rows from one stacked product, and the
        rows at the quadrature nodes are :attr:`rows` bit for bit.
        """
        if self._bracket is None:
            mult = self.settings.bracket_multiplier
            rows = self.rows
            n, K, N = rows.shape
            tb = np.linspace(0.0, self.sys.T, (n - 1) * mult + 1)
            rows_b = np.empty((tb.size, K, N))
            cells = rows_b[:-1].reshape(n - 1, mult, K, N)
            cells[:, 0] = rows[:-1]
            steps = mat_exp(self.sys.A.T, -(tb[1] - tb[0]) * np.arange(1, mult))
            np.matmul(rows[:-1, None], steps, out=cells[:, 1:])
            rows_b[-1] = rows[-1]
            self._bracket = (tb, rows_b)
        return self._bracket

    def primal_nodes(self, scale: float = 1.0) -> np.ndarray:
        """Node values (n, K) of the discrete Fenchel primal of ``scale``
        times the penalizations, solved once per scale (an infeasible one
        raises :class:`~.fenchel.InfeasiblePrimalError` on every call)."""
        if scale not in self._primal:
            from .fenchel import build_discrete_primal, solve_primal

            dp = build_discrete_primal(self)
            self._primal[scale] = solve_primal(replace(dp, c=dp.c / scale)).v * scale
        return self._primal[scale]


# -- functional / subgradient ------------------------------------------------


def eval_functional(prob: DualProblem, p_T, q=None) -> float:
    """Quadrature value of the selected dual functional at p_T; ``q`` may
    pass the node observations of p_T (:meth:`DualProblem.adjoint_observations`)."""
    p_T = prob._check_p(p_T)
    return prob.kind.outer(prob.integral_term(p_T, q), prob.beta)[0] + float(prob.drift @ p_T)


def eval_subgradient(prob: DualProblem, p_T, q=None) -> np.ndarray:
    """A subgradient of the functional at p_T (the gradient wherever the
    integrand avoids breakpoints at the nodes); ``q`` as for
    :func:`eval_functional`."""
    p_T = prob._check_p(p_T)
    if prob.kind.penalized:
        q = prob.adjoint_observations(p_T) if q is None else q
        s = np.stack([pen.selection(q[:, ch]) for ch, pen in enumerate(prob.penalizations)], axis=1)
        base = np.einsum("i,ikn,ik->n", prob.grid.weights, prob.rows, s)
    else:
        base = 2.0 * prob.gram @ p_T
    return prob.outer_slope(lambda: prob.integral_term(p_T, q)) * base + prob.drift


def subgradient_box(prob: DualProblem, p_T):
    """Coordinatewise interval hull of the subdifferential at p_T.

    Nodes within :data:`~.pwl.COINCIDENCE_TOL` of a penalization breakpoint
    contribute their full slope interval; all others their single slope.  The
    intervals are scaled by the slope of the kind's map at the current
    integral term.  The quadratic kinds are smooth: both bounds are the
    gradient.
    """
    if not prob.kind.penalized:
        g = eval_subgradient(prob, p_T)
        return g.copy(), g.copy()
    p_T = prob._check_p(p_T)
    q = prob.adjoint_observations(p_T)
    w = prob.grid.weights
    factor = prob.outer_slope(lambda: prob.integral_term(p_T, q))
    lo = prob.drift.copy()
    hi = prob.drift.copy()
    for ch, pen in enumerate(prob.penalizations):
        s_lo, s_hi = pen.slope_bounds(q[:, ch])
        contrib = factor * w[:, None] * prob.rows[:, ch, :]
        a = contrib * s_lo[:, None]
        b = contrib * s_hi[:, None]
        lo += np.minimum(a, b).sum(axis=0)
        hi += np.maximum(a, b).sum(axis=0)
    return lo, hi


# -- exact piecewise evaluation ----------------------------------------------

# fractions of a switching interval at which its segment is read, in order
PROBES = np.array([0.5, 0.35, 0.65, 0.2, 0.8])


class ExactEvaluator:
    """Evaluate the penalized kinds' integral term and its gradient exactly
    by locating all level crossings of B^T p(t) and integrating the affine
    integrand per switching interval in closed form; the functional is the
    kind's map of that integral plus the drift term.

    With Psi(s) the integral of e^{rA} B over [0, s], an interval [a, b]
    contributes Psi(T - a) - Psi(T - b).  Psi(T) is the problem's
    :attr:`~DualProblem.psi_T`, and Psi(T - b) for all of a channel's
    interval ends is one stacked exponential.  :meth:`pieces` is the one
    reading of a datum's switching intervals; extraction uses it too.
    """

    def __init__(self, prob: DualProblem):
        if not prob.kind.penalized:
            raise ValueError("exact evaluation applies to the penalized kinds")
        self.prob = prob

    def pieces(self, p_T, midpoint_guard=False):
        """Per channel: (crossing times, segment index per switching
        interval, pinned).

        An interval's segment is read at the first probe of ``PROBES`` off a
        kink, or at the midpoint when every probe is on one; ``pinned`` says
        that this happens on some interval at least one bracket cell long,
        i.e. B^T p sits on a breakpoint there.  B^T p is analytic, so it sits
        on a breakpoint over an interval only if it does over the whole
        horizon; a shorter interval is a sliver beside a crossing, every
        probe of which lies on the kink only because it is short.  The crossings are bracketed on one
        product of the bracket rows and refined on one propagator map;
        ``midpoint_guard`` is passed to :func:`find_switchings`.
        """
        from .extract import find_switchings

        prob = self.prob
        tb, rows_b = prob.bracket_grid()
        nb, K, N = rows_b.shape
        qb = (rows_b.reshape(-1, N) @ p_T).reshape(nb, K)
        q_at = prob.propagator.at(p_T)
        out = []
        for ch, pen in enumerate(prob.penalizations):

            def qfun(t, ch=ch):
                return q_at(t)[:, ch]

            crossings, _ = find_switchings(
                qfun, pen.breakpoints, tb, samples=qb[:, ch], midpoint_guard=midpoint_guard
            )
            ts = np.concatenate([[0.0], crossings, [prob.sys.T]])
            probes = ts[:-1, None] + PROBES * np.diff(ts)[:, None]
            qp = qfun(probes.reshape(-1)).reshape(probes.shape)
            lo, hi = pen.slope_bounds(qp)
            off = lo == hi
            first = np.argmax(off, axis=1)
            ks = pen.segment_index(qp[np.arange(first.size), first])
            on_kink = ~off.any(axis=1) & (np.diff(ts) >= tb[1] - tb[0])
            out.append((crossings, ks, bool(on_kink.any())))
        return out

    def integral_and_grad(self, p_T, pieces=None):
        """The integral term I(p_T) and its gradient; ``pieces`` may pass
        :meth:`pieces` of p_T when the caller already has them."""
        prob = self.prob
        p_T = prob._check_p(p_T)
        A, B, T = prob.sys.A, prob.sys.B, prob.sys.T
        base = np.zeros_like(p_T)
        integral = 0.0
        for ch, (crossings, ks, _) in enumerate(self.pieces(p_T) if pieces is None else pieces):
            pen = prob.penalizations[ch]
            ts = np.concatenate([[0.0], crossings, [T]])
            psi_hi = prob.psi_T[:, ch]
            psi_ends = exp_action_integral(A, B, T - ts[1:])[:, :, ch]
            for a, b, k, psi_lo in zip(ts[:-1], ts[1:], ks, psi_ends):
                F = psi_hi - psi_lo  # integral of e^{(T-t)A} B_ch over [a, b]
                base += pen.slopes[k] * F
                integral += pen.slopes[k] * float(F @ p_T) + pen.intercepts[k] * (b - a)
                psi_hi = psi_lo
        return integral, base

    def value_and_grad(self, p_T, pieces=None):
        """Exact value and gradient of the functional at p_T; ``pieces`` as
        for :meth:`integral_and_grad`."""
        prob = self.prob
        p_T = prob._check_p(p_T)
        integral, base = self.integral_and_grad(p_T, pieces)
        value, slope = prob.kind.outer(integral, prob.beta)
        return value + float(prob.drift @ p_T), slope * base + prob.drift

    def hessian(self, p_T, pieces=None):
        """Generalized Hessian of the functional at p_T; ``pieces`` as for
        :meth:`integral_and_grad`.

        Moving p_T moves a crossing t_c of channel ch by -r(t_c) / q'(t_c),
        with r(t) = B_ch^T e^{(T-t)A^T} and q'(t) = -r(t) A^T p_T, and the
        integrand's slope jumps there by ds_c, so the integral term has the
        generalized Hessian H_I = sum_c |ds_c| r(t_c) r(t_c)^T / |q'(t_c)|
        (Ulbrich, Semismooth Newton Methods, SIAM 2011).  The kind's map
        makes it beta H_I for the scaled kind and grad I grad I^T + I H_I
        for the squared kind.
        """
        prob = self.prob
        p_T = prob._check_p(p_T)
        pieces = self.pieces(p_T) if pieces is None else pieces
        Ap = prob.sys.A.T @ p_T
        H = np.zeros((p_T.size, p_T.size))
        for ch, (crossings, ks, _) in enumerate(pieces):
            if crossings.size:
                r = prob.propagator.rows(crossings)[:, ch, :]
                jumps = np.abs(np.diff(prob.penalizations[ch].slopes[ks]))
                H += (r.T * (jumps / np.abs(r @ Ap))) @ r
        if prob.kind.squared:
            integral, base = self.integral_and_grad(p_T, pieces)
            return np.outer(base, base) + integral * H
        return prob.kind.outer(0.0, prob.beta)[1] * H


# -- solver -------------------------------------------------------------------


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    ITERATION_CAP = "iteration_cap_reached"


@dataclass
class SolveReport:
    """The outcome of :func:`minimize`.  ``iterations`` counts the steps
    that ``max_iterations`` caps, quadrature and Newton steps alike;
    ``newton_steps`` counts the Newton steps.  Over their line searches
    (:func:`line_search`), ``line_search_halvings`` sums the exponents k of
    the steps 2^-k taken, or the exponent of the rounding floor where a
    search found none, and ``line_search_trials`` the exact evaluations
    spent, at most 1 + log2 of the floor's exponent per search."""

    status: SolveStatus
    p_T_star: Optional[np.ndarray]
    value: float
    iterations: int
    grad_norm: float
    trace: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    message: str = ""
    newton_steps: int = 0
    line_search_halvings: int = 0
    line_search_trials: int = 0

    @property
    def converged(self) -> bool:
        return self.status == SolveStatus.CONVERGED


def line_search(evaluator: ExactEvaluator, p, J, g, d):
    """A step t = 2^-k along d from p, where the exact value is J and the
    gradient g, that decreases the value strictly and to at most
    J + ARMIJO t g^T d, with t above rounding at the scale 1 + |p|.

    Returns ``(found, k, trials)``: ``found`` is (t, p + t d, its value,
    gradient and :meth:`~ExactEvaluator.pieces`), or None when no step
    passes; ``k`` is the exponent of t, or k_end, the first exponent at the
    rounding floor, when none does; ``trials`` counts the exact evaluations.

    For every penalized kind the exact functional is convex along any ray:
    I integrates convex penalizations of B^T p, ``plain`` and ``scaled`` add
    a linear term to I or beta I, and ``squared``'s I^2 / 2 plus a linear
    term is convex wherever I >= 0.  The passing steps then form an interval
    (0, t_max], so the passing exponents are all k >= k*.  The search tries
    t = 1 and then bisects k on (0, k_end), and so returns 2^-k*, the step
    that halving t from 1 reaches first, from at most 1 + log2 k_end
    evaluations instead of k* + 1.  Convexity also gives J'(t) >= (J(t) -
    J) / t, so a step too long to pass has J'(t) > ARMIJO g^T d; a failed
    trial whose slope along d is below that failed on the rounding of the
    value, and the bisection goes on among longer steps.  Where the premise
    fails (a ``squared`` functional whose I is negative), or the decrease
    is below rounding, the step returned still passes the test, but halving
    may have stopped at another one.
    """
    slope = float(g @ d)
    floor = np.finfo(float).eps * (1.0 + float(np.linalg.norm(p))) / float(np.linalg.norm(d))
    k_end, t = 0, 1.0
    while t > floor:
        t *= 0.5
        k_end += 1

    def trial(k):
        t = 0.5**k
        cand = p + t * d
        cand_pieces = evaluator.pieces(cand)
        J_cand, g_cand = evaluator.value_and_grad(cand, cand_pieces)
        passed = J_cand < J and J_cand <= J + ARMIJO * t * slope
        return passed, float(g_cand @ d), (t, cand, J_cand, g_cand, cand_pieces)

    if k_end == 0:
        return None, 0, 0
    passed, _, step = trial(0)
    if passed:
        return step, 0, 1
    best, k_best, lo, hi, trials = None, k_end, 0, k_end, 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        passed, cand_slope, step = trial(mid)
        trials += 1
        if passed:
            best, k_best, hi = step, mid, mid
        elif cand_slope < ARMIJO * slope:
            hi = mid  # too short to resolve the decrease from rounding
        else:
            lo = mid
    return best, k_best, trials


def _snap_to_active_kinks(prob: DualProblem, p: np.ndarray):
    """Project p onto the manifold where near-active node observations sit
    exactly on their penalization breakpoints.

    Systems with a singular A^T admit constant adjoint observations, so a
    minimizer can pin B^T p(t) to a kink over the whole window (not just at
    isolated crossings); the complementary-slackness certificate only holds
    once those nodes are exactly active.  Returns None when nothing is
    nearly active or the projection moves p by more than ``SNAP_TOL``-scale.
    """
    q = prob.adjoint_observations(p)
    rows = []
    targets = []
    for ch in range(prob.channels):
        pen = prob.penalizations[ch]
        if not pen.breakpoints.size:
            continue
        d = np.abs(q[:, ch][:, None] - pen.breakpoints)
        j = np.argmin(d, axis=1)
        near = d[np.arange(q.shape[0]), j] <= SNAP_TOL * (1.0 + np.abs(q[:, ch]))
        if np.any(near):
            rows.append(prob.rows[near, ch, :])
            targets.append(pen.breakpoints[j[near]])
    if not rows:
        return None
    A = np.vstack(rows)
    b = np.concatenate(targets)
    delta, *_ = np.linalg.lstsq(A, b - A @ p, rcond=None)
    if float(np.linalg.norm(delta)) > 10.0 * SNAP_TOL * (1.0 + float(np.linalg.norm(p))):
        return None
    return p + delta


def minimize(prob: DualProblem) -> SolveReport:
    """Minimize the dual functional over p_T.

    The quadratic kinds are solved in closed form by
    :func:`quadratic_minimizer`, with no iterations: the run converges when
    the gradient there is within ``gtol``.  On an uncontrollable plant a
    larger gradient is the least-squares residual of the normal equations,
    which W annihilates, so the functional is unbounded below along it and
    the run diverges; on a controllable one it is rounding error amplified
    by an ill-conditioned W, and the run ends at ``ITERATION_CAP``.

    The penalized kinds first take gradient steps on the quadrature
    functional, grown on every decrease, up to the first step that does not
    decrease it.  From that iterate, semismooth Newton steps on the exact
    piecewise evaluation remove the quadrature floor of the subgradient:
    each solves (H + mu I) d = -g with the generalized Hessian H of
    :meth:`ExactEvaluator.hessian` and takes the step t = 2^-k of
    :func:`line_search`, the largest that decreases the value strictly and
    by the Armijo fraction of the predicted decrease.  The functional is
    convex along d (for ``squared`` where I >= 0), so the passing exponents
    are all k >= k*, and the search bisects k instead of halving t from 1.
    The step follows -g instead when d is no descent direction
    or no step along d decreases the value: H misses the curvature of
    crossings about to appear, so near a tangency d can overshoot.

    The run converges when the gradient norm is within ``gtol``, or when
    extraction's complementary-slackness test
    (:func:`~.extract.complementary_slackness`) certifies a kinked point:
    the origin, tested first if a penalization is kinked at 0, or the
    active breakpoints near the iterate, tested after a backtracked Newton
    step onto a pinned datum and when the run stops.  Divergence is
    certified when the iterate norm passes the threshold after a window of
    accepted steps, each a strict decrease; a run that finds no decreasing
    step otherwise, or uses up ``max_iterations``, ends at
    ``ITERATION_CAP``.  The report counts the Newton steps, the exponents
    of their line-search steps (``line_search_halvings``) and the exact
    evaluations those searches spent (``line_search_trials``) beside the
    total ``iterations``.
    """
    st = prob.settings
    controllable = kalman_rank(prob.sys.A, prob.sys.B) == prob.sys.dim
    if not controllable:
        logging.getLogger("multilevel_control").warning(
            "system is not controllable: the dual functional may have no minimizer"
        )

    if not prob.kind.penalized:
        p = quadratic_minimizer(prob)
        if not np.all(np.isfinite(p)):
            raise FloatingPointError("the closed-form minimizer overflows (Gramian too small)")
        value = eval_functional(prob, p)
        gn = float(np.linalg.norm(eval_subgradient(prob, p)))
        if gn <= st.gtol:
            return SolveReport(SolveStatus.CONVERGED, p, value, 0, gn, message="closed-form solution")
        if not controllable:
            message = "the drift leaves the range of the Gram matrix (functional unbounded below)"
            return SolveReport(SolveStatus.DIVERGED, None, value, 0, gn, message=message)
        message = "the closed form misses the stationarity tolerance (ill-conditioned Gram matrix)"
        return SolveReport(SolveStatus.ITERATION_CAP, p, value, 0, gn, message=message)

    zero = np.zeros(prob.sys.dim)
    p = zero.copy()
    evaluator = ExactEvaluator(prob)
    it = newton_steps = halvings = trials = 0
    trace_rows = []

    def report(status, p_star, value, gnorm, message=""):
        return SolveReport(
            status=status,
            p_T_star=p_star,
            value=value,
            iterations=it,
            grad_norm=gnorm,
            newton_steps=newton_steps,
            line_search_halvings=halvings,
            line_search_trials=trials,
            trace=np.asarray(trace_rows).reshape(-1, 3),
            message=message,
        )

    def certified(x, integral):
        # extraction's test of a degenerate datum, at the level scale it would use
        from .extract import DegenerateAdjointError, complementary_slackness

        try:
            complementary_slackness(prob, x, prob.outer_slope(integral))
        except DegenerateAdjointError:
            return False
        return True

    def pinned_certificate():
        snapped = _snap_to_active_kinks(prob, p)
        if snapped is None or not certified(snapped, lambda: evaluator.integral_and_grad(snapped)[0]):
            return None
        message = "stationary on active breakpoints (complementary-slackness certificate)"
        return report(SolveStatus.CONVERGED, snapped, evaluator.value_and_grad(snapped)[0], 0.0, message)

    # zero is a frequent exact minimizer because the penalization is kinked
    # at its minimum; there B^T p = 0, so I(0) is T times the penalizations at 0
    kinked = any(np.less(*pen.slope_bounds(0.0)) for pen in prob.penalizations)
    if kinked and certified(zero, lambda: prob.sys.T * sum(pen.value(0.0) for pen in prob.penalizations)):
        message = "stationary at the origin (complementary-slackness certificate)"
        return report(SolveStatus.CONVERGED, zero, eval_functional(prob, zero), 0.0, message)

    def trace():
        trace_rows.append((J, float(np.linalg.norm(p)), float(np.linalg.norm(g))))

    def search(d):
        nonlocal halvings, trials
        found, k, n = line_search(evaluator, p, J, g, d)
        halvings += k
        trials += n
        return found

    # Gradient steps on the quadrature functional, grown on every decrease,
    # up to the first rejected one; then Newton steps on the exact
    # functional, along -g when no step along the Newton direction descends.
    q = prob.adjoint_observations(p)
    J, g = eval_functional(prob, p, q), eval_subgradient(prob, p, q)
    if not np.isfinite(J) or not np.all(np.isfinite(g)):
        raise FloatingPointError(f"functional not finite at the initial point p={p}")
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))
    accepted = 0
    newton = False
    trace()
    while it < st.max_iterations:
        it += 1
        gn = float(np.linalg.norm(g))
        if gn <= st.gtol:
            return report(SolveStatus.CONVERGED, p, J, gn)
        if not newton:
            cand = p - step * g
            q = prob.adjoint_observations(cand)
            J_cand = eval_functional(prob, cand, q)
            if not np.isfinite(J_cand):
                raise FloatingPointError(
                    f"functional overflowed at iterate {it} (|p| = {np.linalg.norm(cand):.3e})"
                )
            if not J_cand < J:
                newton = True
                pieces = evaluator.pieces(p)
                J, g = evaluator.value_and_grad(p, pieces)
                trace()
                continue
            p, J, g = cand, J_cand, eval_subgradient(prob, cand, q)
            step *= 1.3
        else:
            newton_steps += 1
            H = evaluator.hessian(p, pieces)
            mu = NEWTON_REGULARIZATION * (1.0 + float(np.trace(H)))
            d = -np.linalg.solve(H + mu * np.eye(p.size), g)
            found = search(d) if float(g @ d) < 0.0 else None
            if found is None:
                found = search(-g)
            if found is None:
                trace()
                break  # no step decreases the value
            t, p, J, g, pieces = found
        accepted += 1
        trace()
        if float(np.linalg.norm(p)) > DIVERGENCE_THRESHOLD and accepted >= DIVERGENCE_WINDOW:
            return report(
                SolveStatus.DIVERGED,
                None,
                J,
                gn,
                "iterate norm passed the divergence threshold with strictly "
                "decreasing values (non-coercive functional)",
            )
        if newton and t < 1.0 and any(pinned for _, _, pinned in pieces):
            done = pinned_certificate()
            if done is not None:
                return done

    gn = float(np.linalg.norm(g))
    if gn <= st.gtol:
        return report(SolveStatus.CONVERGED, p, J, gn)
    done = pinned_certificate()
    if done is not None:
        return done
    return report(
        SolveStatus.ITERATION_CAP,
        p,
        J,
        gn,
        "descent stalled before reaching the stationarity tolerance",
    )


def quadratic_minimizer(prob: DualProblem) -> np.ndarray:
    """Minimum-norm stationary point of the quadratic kinds in closed form.

    With W the Gramian and y = W^+ drift, the quadratic kind's normal
    equations 2 W p = -drift give p = -y / 2; the squared kind's,
    2 I W p = -drift with I = p^T W p, give p = -(2 c)^(-1/3) y with
    c = drift^T y.  When the drift leaves the range of W, p solves the
    normal equations in the least-squares sense.
    """
    y = np.linalg.lstsq(prob.gram, prob.drift, rcond=None)[0]
    if not prob.kind.squared:
        return -0.5 * y
    c = float(prob.drift @ y)
    return -((2.0 * c) ** (-1.0 / 3.0)) * y if c > 0 else np.zeros_like(y)
