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
The penalized kinds are minimized from the origin by semismooth Newton
steps on the exact piecewise evaluation (:class:`ExactEvaluator`: crossings
screened at the quadrature nodes, certified by each kept cell's Bernstein
coefficients and refined by the Illinois method in :func:`find_switchings`;
value and gradient read the :func:`staircase_integral` of the slopes between
them).  At a kink, the minimum-norm element of the node-sampled
subdifferential (:func:`steepest_subgradient`) certifies a minimizer or
gives the steepest descent.  No LP is solved here.

The module imports only :mod:`.lti` and :mod:`.pwl`.  The primal LP
(:mod:`.fenchel`) and extraction (:mod:`.extract`), which turns
:meth:`ExactEvaluator.pieces` into staircases, build on it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .lti import (
    AdjointPropagator,
    LtiSystem,
    gramian,
    kalman_rank,
    mat_exp,
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
    """The uniform composite-trapezoid rule on [0, T]: ``n`` equally spaced
    ``nodes`` and their ``weights`` (h, halved at both ends)."""

    T: float
    n: int = 4000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 quadrature nodes")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"the horizon must be finite and > 0, got {self.T}")
        w = np.full(self.n, self.T / (self.n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        object.__setattr__(self, "nodes", np.linspace(0.0, self.T, self.n))
        object.__setattr__(self, "weights", w)

    @classmethod
    def trapezoid(cls, T: float, n: int | None = None) -> "QuadratureGrid":
        return cls(T) if n is None else cls(T, n)


@dataclass(frozen=True)
class OptimizerSettings:
    """Descent configuration.

    ``max_iterations`` caps the origin's step and the Newton steps, and
    ``bracket_multiplier`` sets h_b = (quadrature step) / ``bracket_multiplier``
    (:meth:`DualProblem.bracket_grid`), the shortest switching interval on a
    kink that :meth:`ExactEvaluator.pieces` reports pinned.
    The stationarity tolerance on the gradient norm is the constant
    :data:`GTOL`.
    """

    max_iterations: int = 50_000
    bracket_multiplier: int = 8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.bracket_multiplier < 1:
            raise ValueError(f"bracket_multiplier must be >= 1, got {self.bracket_multiplier}")


# Descent constants.  A run converges once the gradient norm, or the
# minimum-norm subgradient at a kink, is within GTOL (at a kink also within
# NODE_TOL times the subdifferential's extent, a relative tolerance, see
# steepest_subgradient), and diverges at once if the drift's residual
# outside the range of the Gramian exceeds GTOL.  A Newton step solves
# (H + mu I) d = -g with mu = NEWTON_REGULARIZATION (1 + tr H) and takes the
# largest step 2^-k that meets the Armijo condition with constant ARMIJO: the
# quadrature functional guesses k and exact trials at k and k - 1 confirm it,
# or bisection on k finds it, which the convexity of the functional along d
# allows (see line_search).  A stalled iterate is snapped
# onto the breakpoints its node observations lie within SNAP_TOL of (relative).
GTOL = 1e-6
NEWTON_REGULARIZATION = 1e-10
ARMIJO = 1e-4
SNAP_TOL = 1e-6
NODE_TOL = 1e-9


class DualProblem:
    """An LTI system, one penalization per control channel, a functional
    kind and a quadrature grid.

    The construction validates the inputs and forms the terminal drift
    e^{TA} x0, which every kind reads.  The other constants are formed on
    first read, so only by the kinds and outcomes that read them: the
    adjoint :attr:`propagator`, whose node rows B^T e^{(T-t_i)A^T} are
    :attr:`rows`, its augmented twin :attr:`psi_propagator`, the Gramian W
    (:attr:`gram`), the channel conjugates (:attr:`conjugates`) and the
    crossing search's bounds (:attr:`row_bounds`).  Functional values and
    subgradients are then matrix products.  No constant refers back to the
    problem.
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
        if abs(self.grid.T - sys.T) > 1e-9:
            raise ValueError("quadrature grid must cover [0, T]")
        self.settings = settings if settings is not None else OptimizerSettings()
        self.drift = mat_exp(sys.A, sys.T) @ sys.x0

    # -- constants, formed on first read -------------------------------------

    @property
    def rows(self) -> np.ndarray:
        """The adjoint rows B^T e^{(T-t_i)A^T} at the quadrature nodes, (n, K, N)."""
        return self.propagator.node_rows

    @cached_property
    def gram(self) -> np.ndarray:
        """The Gramian W, the integral of e^{sA} B B^T e^{sA^T} over [0, T]."""
        return gramian(self.sys.A, self.sys.B, self.sys.T)

    @cached_property
    def row_bounds(self) -> np.ndarray:
        """|b_c| and |A^2 b_c| times e^{T max(0, mu)} per channel c, (2, K),
        with mu = max eig (A + A^T) / 2 >= the growth rate of |e^{sA}|: so
        |q_c| <= |p| row_bounds[0, c] and |q_c''| <= |p| row_bounds[1, c]."""
        A, B, T = self.sys.A, self.sys.B, self.sys.T
        growth = np.exp(T * max(0.0, np.linalg.eigvalsh(0.5 * (A + A.T))[-1]))
        return growth * np.linalg.norm(np.stack([B, A @ A @ B]), axis=1)

    @cached_property
    def conjugates(self) -> tuple:
        """The convex conjugate of each channel's penalization."""
        return tuple(conjugate(pen) for pen in self.penalizations)

    @cached_property
    def propagator(self) -> AdjointPropagator:
        """The map (t, p) -> B^T e^{(T-t)A^T} p, from the rows at the nodes."""
        return AdjointPropagator(self.sys.A, self.sys.B, self.sys.T, self.grid.nodes)

    @cached_property
    def psi_propagator(self) -> AdjointPropagator:
        """Psi(T - t)^T, the first N columns of the adjoint rows [Psi(T -
        t)^T, I] of M = [[A, B], [0, 0]] and [0; I] (Van Loan, 1978), on the
        fewest uniform cells with |M|_2 h <= 1."""
        (n, k), T = self.sys.B.shape, self.sys.T
        M = np.vstack([np.hstack([self.sys.A, self.sys.B]), np.zeros((k, n + k))])
        cells = max(1, int(np.ceil(np.linalg.norm(M, 2) * T)))
        return AdjointPropagator(M, np.eye(n + k)[:, n:], T, np.linspace(0.0, T, cells + 1))

    # -- basic maps ---------------------------------------------------------

    @property
    def channels(self) -> int:
        return self.sys.channels

    def adjoint_observations(self, p_T) -> np.ndarray:
        """B^T p(t_i) at the quadrature nodes, shape (n, K)."""
        p_T = self._check_p(p_T)
        n, K, N = self.rows.shape
        return (self.rows.reshape(-1, N) @ p_T).reshape(n, K)

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

    def bracket_grid(self) -> float:
        """The width h_b = (quadrature step) / ``bracket_multiplier``: a
        switching interval at least h_b long whose every probe lies on a kink
        is pinned there (:meth:`ExactEvaluator.pieces`), a shorter one is a
        sliver beside a crossing."""
        return (self.grid.nodes[1] - self.grid.nodes[0]) / self.settings.bracket_multiplier


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


def subdifferential(prob: DualProblem, p_T, q=None):
    """The node-sampled subdifferential at p_T, the zonotope c + sum_j [-1,
    1] h_j, as ``(c, h)``: c is :func:`eval_subgradient`, and each node i and
    channel ch on a kink (slope bounds lo < hi) give a row h_j = phi'(I) w_i
    (hi - lo) / 2 B_ch^T e^{(T-t_i)A^T}.  ``q`` as for :func:`eval_functional`."""
    p_T = prob._check_p(p_T)
    if not prob.kind.penalized:
        return eval_subgradient(prob, p_T), np.zeros((0, p_T.size))
    q = prob.adjoint_observations(p_T) if q is None else q
    scale = prob.outer_slope(lambda: prob.integral_term(p_T, q))
    h = []
    for ch, pen in enumerate(prob.penalizations):
        lo, hi = pen.slope_bounds(q[:, ch])
        on = lo < hi
        h.append((0.5 * scale * prob.grid.weights[on] * (hi - lo)[on])[:, None] * prob.rows[on, ch])
    return eval_subgradient(prob, p_T, q), np.concatenate(h)


def subgradient_box(prob: DualProblem, p_T):
    """Coordinatewise interval hull of the :func:`subdifferential` at p_T,
    c -/+ sum_j |h_j|: nodes on a penalization breakpoint contribute their
    full slope interval, all others their single slope."""
    c, h = subdifferential(prob, p_T)
    width = np.abs(h).sum(axis=0)
    return c - width, c + width


# Wolfe's stopping allowance on x^T (x - v), in eps times the square of the
# bound |c| + sum_j |h_j| of the zonotope's points, and his major cycles' cap
WOLFE_ROUNDING, WOLFE_CYCLES = 64, 1000


def steepest_subgradient(prob: DualProblem, p_T, q=None):
    """The minimum-norm element s of the :func:`subdifferential` at p_T, and
    the radius within which |s| certifies p_T a minimizer.  Min over d of
    J'(p; d) + |d|^2 / 2 is -|s|^2 / 2, at d = -s, so -s is the steepest
    descent (Wolfe, Math. Prog. 11, 1976).  The radius is :data:`GTOL`, or
    where nodes sit on kinks the smaller ``NODE_TOL`` times the extent sum_j
    |h_j|, the subgradient's reach over the kinked nodes' slope intervals: a
    point certified by GTOL alone can be no minimizer, one where no
    staircase between the kinks' levels steers x0 (README, "Degenerate dual
    minimizers").  ``q`` as for :func:`eval_functional`."""
    c, h = subdifferential(prob, p_T, q)
    radius = min(GTOL, NODE_TOL * float(np.linalg.norm(h, axis=1).sum())) if h.size else GTOL
    return _min_norm_point(c, h)[0], radius


def _min_norm_point(c, h):
    """The least-norm point of the zonotope c + sum_j [-1, 1] h_j (rows of
    ``h``) by Wolfe's method from c: the vertex minimizing x^T z is c -
    sign(h x)^T h, a corral of at most N + 1 atoms has its affine minimizer
    by least squares on their differences, and a minor cycle moves towards
    it until a weight falls to 0 and drops that atom.  Returns the point and
    the count of major cycles, one product with ``h`` each."""
    if not h.size:
        return c, 0
    allowance = WOLFE_ROUNDING * np.finfo(float).eps * float(np.linalg.norm(c) + np.linalg.norm(h, axis=1).sum()) ** 2
    atoms, weights, x = c[None, :], np.ones(1), c
    for cycles in range(1, WOLFE_CYCLES + 1):
        v = c - np.sign(h @ x) @ h
        if x @ x - x @ v <= allowance:
            break
        atoms, weights = np.vstack([atoms, v]), np.append(weights, 0.0)
        while True:
            beta = np.linalg.lstsq((atoms[1:] - atoms[0]).T, -atoms[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
            if np.all(alpha > 0.0):
                weights = alpha
                break
            # the largest move towards alpha that keeps every weight >= 0
            cut = np.flatnonzero(alpha <= 0.0)
            ratio = weights[cut] / np.maximum(weights[cut] - alpha[cut], np.finfo(float).tiny)
            j, theta = cut[np.argmin(ratio)], float(ratio.min())
            weights = (1.0 - theta) * weights + theta * alpha
            keep = weights > np.finfo(float).eps
            keep[j] = False
            atoms, weights = atoms[keep], weights[keep] / weights[keep].sum()
        y = weights @ atoms
        if not y @ y < x @ x:
            break  # no progress above rounding
        x = y
    return x, cycles


# chord_bound's allowance, relative to |q_c| <= |d| row_bounds[0, c], for the
# rounding of the node samples and their deviation from the exact exponential
# sum (measured up to 2.4e-13)
CHORD_TOL = 1e-10


def chord_bound(prob: DualProblem, d, slopes, scale: float = 1.0) -> float:
    """An upper bound of ``scale`` S + drift^T d, ``scale`` >= 0, from the
    node samples q = ``rows @ d`` alone.  S integrates sum_c max(lo_c q_c,
    hi_c q_c) over [0, T] for the ``slopes`` (lo_c, hi_c): the integrand is
    convex and L_c-Lipschitz in q_c (L_c = max(|lo_c|, |hi_c|)), and q_c
    lies within M_c h^2 / 8 of its chord (M_c = |d| ``row_bounds[1, c]``),
    so S is at most the trapezoid sum plus T sum_c L_c (M_c h^2 / 8 +
    ``CHORD_TOL`` |d| ``row_bounds[0, c]``).  With the hull (slopes[0],
    slopes[-1]) and the plain or scaled kind's constant slope, it bounds the
    recession lim J(s d) / s, which is the support-function margin m(d):
    below 0, it proves that no control steers x0 to 0.
    """
    q = prob.adjoint_observations(d)
    bound0, bound2 = prob.row_bounds * float(np.linalg.norm(d))
    reach = bound2 * prob.propagator.h**2 / 8.0 + CHORD_TOL * bound0
    total = 0.0
    for ch, (lo, hi) in enumerate(slopes):
        total += float(prob.grid.weights @ np.maximum(lo * q[:, ch], hi * q[:, ch]))
        total += prob.sys.T * max(abs(lo), abs(hi)) * reach[ch]
    return scale * total + float(prob.drift @ d)


# -- exact piecewise evaluation ----------------------------------------------

# fractions of a switching interval at which its segment is read, in order;
# the crossing search's rounding allowance (eps of its products), run length,
# cut fraction (not dyadic, so that cuts seldom land on a root) and narrowest cut
PROBES = np.array([0.5, 0.35, 0.65, 0.2, 0.8])
ROUNDING, BLOCK, CUT, FLOOR = 8, 64, 0.4871, 1e-13
# the Illinois refinement's bracket width and step cap
BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 50


def _cuts(starts, h, coef, levels, tol):
    """Lists of the points that cut the cells [starts, starts + h], whose
    polynomials have the Bernstein coefficients ``coef``, until each piece
    crosses each level l at most once, and of the values there.  b - l
    changes sign at least as often as the piece crosses l (Lane &
    Riesenfeld, BIT 21, 1981), so monotone b pass; a piece with more changes
    for a level that b passes by more than ``tol`` on both sides is cut by
    de Casteljau at the fraction ``CUT``, down to width ``FLOOR``."""
    width, m, times, values = np.full(starts.size, h), coef.shape[1] - 1, [], []
    while True:
        slope = coef[:, 1:] - coef[:, :-1]
        cut = (slope > 0).any(axis=1) & (slope < 0).any(axis=1)
        if cut.any():
            d = coef[cut, None] - levels[:, None]
            many = np.count_nonzero((d[:, :, 1:] > 0) != (d[:, :, :-1] > 0), axis=2) > 1
            cut[cut] = (many & (d.min(axis=2) < -tol) & (d.max(axis=2) > tol)).any(axis=1) & (width[cut] > FLOOR)
        if not cut.any():
            return times, values
        b, starts, width, n = coef[cut], starts[cut], width[cut], np.count_nonzero(cut)
        coef = np.empty((2 * n, m + 1))
        for k in range(m + 1):
            coef[:n, k], coef[n:, m - k] = b[:, 0], b[:, -1]
            b = (1.0 - CUT) * b[:, :-1] + CUT * b[:, 1:]
        times.append(starts + CUT * width)
        values.append(coef[:n, m])
        starts, width = np.concatenate([starts, times[-1]]), np.concatenate([CUT * width, (1.0 - CUT) * width])


def find_switchings(q, breakpoints, grid, samples=None):
    """Interior times where ``q`` crosses any breakpoint value.

    ``q`` maps an array of times to values, ``grid`` brackets the crossings:
    a cell of it that holds two crossings of a level shows neither.
    Returns (sorted crossing times, sorted touch times): grid points where q
    equals a breakpoint without a sign change across the neighbours are
    touches.

    Each sign change is refined by the Illinois method (modified regula
    falsi; Dowell & Jarratt, BIT 11, 1971): the secant point, kept at least
    ``BISECTION_TOL`` / 2 inside the bracket as in Dekker's method, or the
    midpoint where it is not finite, becomes the newest end; where it lies
    on the side of the one before, the older end stays with its value
    halved.  A bracket stops at width ``BISECTION_TOL`` or an exact zero,
    within ``BISECTION_MAX_ITER`` steps, and the crossing is its midpoint.
    All brackets are refined together in breakpoint-major order, one ``q``
    evaluation per step on those still open.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("bracketing grid must be strictly increasing")
    qq = np.asarray(q(grid), dtype=float).reshape(-1) if samples is None else np.asarray(samples, dtype=float).reshape(-1)
    if qq.size != grid.size:
        raise ValueError("sample count does not match the grid")
    breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float))

    # one row per breakpoint; a cell with an end on the level brackets
    # nothing: the exact hit is a crossing or a tangential touch by the
    # nearest nonzero signs on both sides
    above, hit = qq > breakpoints[:, None], qq == breakpoints[:, None]
    change = (above[:, :-1] != above[:, 1:]) & ~(hit[:, :-1] | hit[:, 1:])
    crossings, touches = [], []
    for bk in breakpoints[hit.any(axis=1)]:
        sgn = np.sign(qq - bk)
        signed = np.flatnonzero(sgn)
        i = np.flatnonzero(qq == bk)
        j = np.searchsorted(signed, i)  # first signed sample after each hit
        inner = (j > 0) & (j < signed.size)
        i, j = i[inner], j[inner]
        flip = sgn[signed[j - 1]] * sgn[signed[j]] < 0
        crossings.extend(grid[i[flip]].tolist())
        touches.extend(grid[i[~flip]].tolist())
    level, idx = np.nonzero(change)  # breakpoint-major
    bks = breakpoints[level]
    # Illinois steps on all open brackets together, one vectorized
    # evaluation per step: b is the newest end and a the older one, whose
    # value is halved whenever a step keeps it
    a, b = grid[idx], grid[idx + 1]
    fa, fb = qq[idx] - bks, qq[idx + 1] - bks
    live = np.arange(idx.size)
    for _ in range(BISECTION_MAX_ITER):
        live = live[np.abs(b[live] - a[live]) > BISECTION_TOL]
        if not live.size:
            break
        a0, b0, fa0, fb0 = a[live], b[live], fa[live], fb[live]
        lo, hi = np.minimum(a0, b0), np.maximum(a0, b0)
        x = np.minimum(np.maximum(b0 - fb0 * (b0 - a0) / (fb0 - fa0), lo + 0.5 * BISECTION_TOL), hi - 0.5 * BISECTION_TOL)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        fx = np.asarray(q(x), dtype=float).reshape(-1) - bks[live]
        flip = (fx > 0) != (fb0 > 0)  # x and b straddle the level: b is kept
        a[live] = np.where(fx == 0, x, np.where(flip, b0, a0))  # an exact zero closes the bracket
        fa[live] = np.where(flip, fb0, 0.5 * fa0)
        b[live], fb[live] = x, fx
    crossings.extend((0.5 * (a + b)).tolist())
    eps = 10 * BISECTION_TOL
    a, b = grid[0], grid[-1]
    crossings = [t for t in crossings if a + eps < t < b - eps]
    return np.sort(np.array(crossings)), np.sort(np.array(touches))


def staircase_integral(prob: DualProblem, times, levels) -> np.ndarray:
    """The integral of e^{(T-t)A} B u(t) over [0, T] for the staircase u
    whose channel c holds ``levels[c][k]`` from switch ``times[c][k-1]`` to
    ``times[c][k]``: with Psi(s) the integral of e^{rA} B over [0, s], the
    sum over channels of Psi(T) u_0 + sum_k (u_k - u_{k-1}) Psi(T - tau_k),
    from one ``rows`` call of :attr:`DualProblem.psi_propagator`."""
    tau, ch = np.concatenate([[0.0], *times]), np.repeat(np.arange(len(times)), [t.size for t in times])
    psi = prob.psi_propagator.rows(tau)[:, :, : prob.sys.dim]
    jumps = np.concatenate([np.diff(lv) for lv in levels])
    return psi[0].T @ [lv[0] for lv in levels] + jumps @ psi[1 + np.arange(ch.size), ch]


def moment_weights(nodes, weights) -> np.ndarray:
    """Node weights w_i (t_i / T)^2 of the moment, summed over channels,
    that :func:`~.fenchel.solve_primal` minimizes over its optimal face and
    :func:`~.extract.extract_control` over the staircases that steer x0."""
    return weights * (nodes / nodes[-1]) ** 2


class ExactEvaluator:
    """Evaluate the penalized kinds' integral term and its gradient exactly
    by locating all level crossings of B^T p(t): between crossings the
    integrand is affine in p, so the gradient is the
    :func:`staircase_integral` of the segments' slopes, the terminal state
    of that staircase less the drift.  :meth:`pieces` is the one reading
    of a datum's switching intervals; extraction uses it.
    """

    def __init__(self, prob: DualProblem):
        if not prob.kind.penalized:
            raise ValueError("exact evaluation applies to the penalized kinds")
        self.prob = prob

    def pieces(self, p_T):
        """Per channel: (crossing times, segment index per switching
        interval, pinned).

        The crossings are searched on the quadrature grid.  A cell is kept
        when its node samples q = ``rows @ p``, widened by M h^2 / 8 (the
        chord's error, M >= |q''| by :attr:`DualProblem.row_bounds`) and
        ``ROUNDING`` eps of the products, reach a level (runs of ``BLOCK``
        cells first).  A kept cell's Bernstein coefficients
        (:attr:`~.lti.AdjointPropagator.bernstein`) decide its cuts
        (:func:`_cuts`), and :func:`find_switchings` scans the kept cells'
        nodes and the cuts, sampled by de Casteljau, and refines the brackets
        on the same polynomials.

        An interval's segment is read at the first probe of ``PROBES`` off a
        kink, or at the midpoint when every probe is on one; ``pinned`` says
        that this happens on some interval at least h_b long
        (:meth:`DualProblem.bracket_grid`).  B^T p is analytic, so it sits
        on a breakpoint over an interval only if it does over the whole
        horizon; a shorter one is a sliver beside a crossing.
        """
        prob = self.prob
        prop, nodes, rows = prob.propagator, prob.grid.nodes, prob.rows
        h, h_b = prop.h, prob.bracket_grid()
        qn, q_at = prob.adjoint_observations(p_T), prop.at(p_T)
        bound0, bound2 = prob.row_bounds * float(np.linalg.norm(p_T))
        tol = ROUNDING * np.finfo(float).eps * bound0
        reach, coef = bound2 * h * h / 8.0 + tol, (prop.terms @ p_T) @ prop.bernstein
        out = []
        for ch, pen in enumerate(prob.penalizations):

            def qfun(t, ch=ch):
                return q_at(t)[:, ch]

            # the cells not certified free of crossings (runs of BLOCK cells
            # first), whose ends and the horizon's are scanned with the cuts
            q, bk = qn[:, ch], np.sort(pen.breakpoints)
            lo, hi = np.minimum(q[:-1], q[1:]) - reach[ch], np.maximum(q[:-1], q[1:]) + reach[ch]
            starts = np.arange(0, lo.size, BLOCK)
            runs = np.searchsorted(bk, np.maximum.reduceat(hi, starts), "right") > np.searchsorted(bk, np.minimum.reduceat(lo, starts))
            ends = np.flatnonzero(np.repeat(runs, BLOCK)[: lo.size])
            ends = ends[np.searchsorted(bk, hi[ends], "right") > np.searchsorted(bk, lo[ends])]
            keep = np.zeros(nodes.size, dtype=bool)
            keep[[0, -1]] = keep[ends] = keep[ends + 1] = True
            cuts, at_cuts = _cuts(nodes[ends], h, rows[ends, ch] @ coef, bk, tol[ch])
            grid, samples = np.concatenate([nodes[keep], *cuts]), np.concatenate([q[keep], *at_cuts])
            order = np.argsort(grid, kind="stable") if cuts else slice(None)
            crossings, _ = find_switchings(qfun, pen.breakpoints, grid[order], samples=samples[order])
            ts = np.concatenate([[0.0], crossings, [prob.sys.T]])
            probes = ts[:-1, None] + PROBES * np.diff(ts)[:, None]
            qp = qfun(probes.reshape(-1)).reshape(probes.shape)
            lo_s, hi_s = pen.slope_bounds(qp)
            off = lo_s == hi_s
            first = np.argmax(off, axis=1)
            ks = pen.segment_index(qp[np.arange(first.size), first])
            on_kink = ~off.any(axis=1) & (np.diff(ts) >= h_b)
            out.append((crossings, ks, bool(on_kink.any())))
        return out

    def integral_and_grad(self, p_T, pieces=None):
        """The integral term I(p_T) and its gradient; ``pieces`` may pass
        :meth:`pieces` of p_T when the caller already has them.  The gradient
        is the :func:`staircase_integral` of the segments' slopes, and I is
        its product with p_T plus the intercepts times the interval widths."""
        prob = self.prob
        p_T = prob._check_p(p_T)
        pieces = self.pieces(p_T) if pieces is None else pieces
        pens, times = prob.penalizations, [crossings for crossings, _, _ in pieces]
        base = staircase_integral(prob, times, [pen.slopes[ks] for pen, (_, ks, _) in zip(pens, pieces)])
        widths = (np.diff(np.concatenate([[0.0], t, [prob.sys.T]])) for t in times)
        intercepts = sum(float(pen.intercepts[ks] @ w) for pen, (_, ks, _), w in zip(pens, pieces, widths))
        return float(base @ p_T) + intercepts, base

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
    that ``max_iterations`` caps, the origin's step and the Newton steps;
    ``newton_steps`` counts the Newton steps.  Over their line searches
    (:func:`line_search`), ``line_search_halvings`` sums the exponents k of
    the steps 2^-k taken, or the exponent of the rounding floor where a
    search found none, and ``line_search_trials`` the exact evaluations
    spent, at most 2 + log2 of the floor's exponent per search."""

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

    Every penalized kind's exact functional is convex along any ray (I
    integrates convex penalizations of B^T p; ``squared``'s I^2 / 2 where I
    >= 0), so the passing exponents are all k >= k*, and the search returns
    2^-k*, the step that halving t from 1 reaches first.  It bisects k on
    (0, k_end), and a failed trial whose slope along d is below ARMIJO g^T d
    failed on the rounding of the value (convexity gives J'(t) >= (J(t) -
    J) / t), so the bisection goes on among longer steps.

    The quadrature functional (:func:`eval_functional` on the node
    observations of p + t d) is convex along d too and far cheaper, so its
    first exponent k_q that passes the same test (t = 1 first, then
    bisection) is the guess: the exact trials at k_q and k_q - 1 come first.
    When k_q passes and k_q - 1 fails by overshooting (its slope along d is
    at least ARMIJO g^T d, or k_q - 1 = 0), they bracket k*, and the search
    ends after 2 trials, or 1 when t = 1 passes.  Otherwise it bisects the
    bracket they leave, from at most 2 + log2 k_end evaluations.  The guess
    is taken only when its Armijo decrease is above rounding at J; below,
    the search tries t = 1 and bisects (0, k_end), from at most 1 + log2
    k_end evaluations.  Where the premise fails (``squared`` with I < 0) or
    the decrease is below rounding, the step returned still passes the
    test, but halving may have stopped at another one.
    """
    slope = float(g @ d)
    floor = np.finfo(float).eps * (1.0 + float(np.linalg.norm(p))) / float(np.linalg.norm(d))
    k_end, t = 0, 1.0
    while t > floor:
        t *= 0.5
        k_end += 1
    if k_end == 0:
        return None, 0, 0

    def bisect(shorter, first):
        # the first k in (-1, k_end) that ``shorter`` accepts, or k_end: the
        # exponents ``first`` (popped from the end) are tried before midpoints
        lo, hi = -1, k_end
        while hi - lo > 1:
            k = first.pop() if first else (lo + hi) // 2
            if lo < k < hi:
                lo, hi = (lo, k) if shorter(k) else (k, hi)
        return hi

    prob = evaluator.prob
    qp, qd = prob.adjoint_observations(p), prob.adjoint_observations(d)
    J_q = eval_functional(prob, p, qp)

    def quadrature_passes(k):
        J_t = eval_functional(prob, p + 0.5**k * d, qp + 0.5**k * qd)
        return J_t < J_q and J_t <= J_q + ARMIJO * 0.5**k * slope

    found, k_found, trials = None, k_end, 0

    def exact_passes(k):
        nonlocal found, k_found, trials
        t = 0.5**k
        cand = p + t * d
        cand_pieces = evaluator.pieces(cand)
        J_cand, g_cand = evaluator.value_and_grad(cand, cand_pieces)
        trials += 1
        if J_cand < J and J_cand <= J + ARMIJO * t * slope:
            found, k_found = (t, cand, J_cand, g_cand, cand_pieces), k
            return True
        return k > 0 and float(g_cand @ d) < ARMIJO * slope  # too short to resolve the decrease from rounding

    k_q = bisect(quadrature_passes, [0])
    guessed = k_q < k_end and J + ARMIJO * 0.5**k_q * slope < J
    bisect(exact_passes, [k_q - 1, k_q] if guessed else [0])
    return found, k_found, trials


def _snap_to_active_kinks(prob: DualProblem, p: np.ndarray):
    """Project p onto the manifold where near-active node observations sit
    exactly on their penalization breakpoints.

    Systems with a singular A^T admit constant adjoint observations, so a
    minimizer can pin B^T p(t) to a kink over the whole window (not just at
    isolated crossings); :func:`steepest_subgradient` sees those nodes' slope
    intervals only once they are exactly active.  Returns None when nothing
    is nearly active or the projection moves p by more than ``SNAP_TOL``-scale.
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

    A run diverges only on a certificate that no control exists.  The first
    is, on an uncontrollable plant, the drift's residual r outside the range
    of the Gramian W: B^T p(t) vanishes along -r, so every kind falls to -inf
    along it and no gradient is shorter than |r|.  When |r| > :data:`GTOL`
    the run diverges at once, reporting |r| and the value at the origin.

    The quadratic kinds are then solved in closed form by
    :func:`quadratic_minimizer` with no iterations, and converge when the
    gradient there is within :data:`GTOL`.  A larger gradient is rounding
    amplified by an ill-conditioned W (``ITERATION_CAP``).

    The penalized kinds start at the origin, which its
    :func:`steepest_subgradient` s certifies (0 iterations) when |s| is
    within the oracle's radius.  For the plain and scaled kinds, a negative
    :func:`chord_bound` of the recession function along -s, and then along
    each accepted iterate, is the second divergence certificate.  Semismooth
    Newton steps on the exact evaluation follow: each solves (H + mu I) d =
    -g with H of :meth:`ExactEvaluator.hessian` and takes the step of
    :func:`line_search`.  Where no step along d decreases the value on a
    pinned datum, s at the iterate ends the loop when it certifies it, or
    gives the direction -s / mu, whose steps 2^-k span the same lengths as a
    Newton step's where H vanishes; -g comes last, since H misses the
    curvature of crossings about to appear.

    The run also converges when |g| is within :data:`GTOL`, or when s
    certifies the active breakpoints near the iterate
    (:func:`_snap_to_active_kinks`), tested after a backtracked step onto a
    pinned datum and when the run stops.  A run that finds no decreasing
    step, or uses up ``max_iterations``, ends at ``ITERATION_CAP``.
    """
    zero = np.zeros(prob.sys.dim)
    if kalman_rank(prob.sys.A, prob.sys.B) < prob.sys.dim:
        logging.getLogger("multilevel_control").warning(
            "system is not controllable: the dual functional may have no minimizer"
        )
        W = prob.gram
        residual = float(np.linalg.norm(prob.drift - W @ np.linalg.lstsq(W, prob.drift, rcond=None)[0]))
        if residual > GTOL:
            message = "the drift leaves the range of the Gram matrix (functional unbounded below)"
            return SolveReport(SolveStatus.DIVERGED, None, eval_functional(prob, zero), 0, residual, message=message)

    if not prob.kind.penalized:
        p = quadratic_minimizer(prob)
        if not np.all(np.isfinite(p)):
            raise FloatingPointError("the closed-form minimizer overflows (Gramian too small)")
        value = eval_functional(prob, p)
        gn = float(np.linalg.norm(eval_subgradient(prob, p)))
        if gn <= GTOL:
            return SolveReport(SolveStatus.CONVERGED, p, value, 0, gn, message="closed-form solution")
        message = "the closed form misses the stationarity tolerance (ill-conditioned Gram matrix)"
        return SolveReport(SolveStatus.ITERATION_CAP, p, value, 0, gn, message=message)

    p = zero
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

    def pinned_certificate():  # the end at the snapped iterate, if its steepest subgradient certifies it
        snapped = _snap_to_active_kinks(prob, p)
        if snapped is None:
            return None
        s, radius = steepest_subgradient(prob, snapped)
        if np.linalg.norm(s) > radius:
            return None
        message = "stationary on active breakpoints (minimum-norm subgradient)"
        return report(SolveStatus.CONVERGED, snapped, evaluator.value_and_grad(snapped)[0], float(np.linalg.norm(s)), message)

    def trace():
        trace_rows.append((J, float(np.linalg.norm(p)), float(np.linalg.norm(g))))

    def search(d, grad):  # line_search along d, with grad^T d the slope of its Armijo test
        nonlocal halvings, trials
        found, k, n = line_search(evaluator, p, J, grad, d)
        halvings += k
        trials += n
        return found

    # the origin, a frequent minimizer as the penalizations are kinked at their
    # minimum: B^T p = 0 there, so its test reads only the node rows
    q = prob.adjoint_observations(p)
    J = eval_functional(prob, p, q)
    g, radius = steepest_subgradient(prob, p, q)
    if not np.isfinite(J) or not np.all(np.isfinite(g)):
        raise FloatingPointError(f"functional not finite at the initial point p={p}")
    gn = float(np.linalg.norm(g))
    if gn <= radius:
        return report(SolveStatus.CONVERGED, p, J, gn, "stationary at the origin (minimum-norm subgradient)")
    hull = [(pen.slopes[0], pen.slopes[-1]) for pen in prob.penalizations]

    def unbounded(d):  # the recession bound along d, for the kinds whose map is linear
        return not prob.kind.squared and chord_bound(prob, d, hull, prob.kind.outer(0.0, prob.beta)[1]) < 0.0

    def diverged():
        message = "the recession bound along the iterate is negative: no control with levels in the "
        message += "ladder's hull steers x0 to 0 (functional unbounded below)"
        return report(SolveStatus.DIVERGED, None, J, float(np.linalg.norm(g)), message)

    it = 1  # the origin's step: the recession test along -s, then the exact evaluation
    trace()
    if unbounded(-g):
        return diverged()
    pieces = evaluator.pieces(p)
    J, g = evaluator.value_and_grad(p, pieces)
    trace()
    while it < prob.settings.max_iterations:
        it += 1
        gn = float(np.linalg.norm(g))
        if gn <= GTOL:
            return report(SolveStatus.CONVERGED, p, J, gn)
        newton_steps += 1
        H = evaluator.hessian(p, pieces)
        mu = NEWTON_REGULARIZATION * (1.0 + float(np.trace(H)))
        d = -np.linalg.solve(H + mu * np.eye(p.size), g)
        found = search(d, g) if float(g @ d) < 0.0 else None
        if found is None and any(pinned for _, _, pinned in pieces):
            s, radius = steepest_subgradient(prob, p)
            if np.linalg.norm(s) <= radius:
                break  # s certifies p: the certificate after the loop snaps it and ends the run
            found = search(-s / mu, s)
        if found is None:
            found = search(-g, g)
        if found is None:
            trace()
            break  # no step decreases the value
        t, p, J, g, pieces = found
        trace()
        if unbounded(p):
            return diverged()
        if t < 1.0 and any(pinned for _, _, pinned in pieces):
            done = pinned_certificate()
            if done is not None:
                return done

    gn = float(np.linalg.norm(g))
    if gn <= GTOL:
        return report(SolveStatus.CONVERGED, p, J, gn)
    return pinned_certificate() or report(
        SolveStatus.ITERATION_CAP, p, J, gn, "descent stalled before reaching the stationarity tolerance"
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
