"""From an optimal adjoint datum to an explicit staircase control.

The adjoint observation q(t) = B^T p(t) is analytic, so it crosses any
penalization breakpoint finitely often.  :meth:`~.dual.ExactEvaluator.pieces`
reads its crossings and the segment between them, the reading that the
exact dual evaluation integrates; its crossing search,
:func:`~.dual.find_switchings`, lives in :mod:`.dual` and is re-exported
here.  This module turns the pieces into staircases: between crossings the
control level is the slope of the penalization segment containing q.

Where the datum is degenerate, with q pinned on a breakpoint over an
interval (the zero datum whenever 0 is a breakpoint), the optimal controls
are the selections of the two adjacent slopes there, and the staircase is
read off a vertex of the discrete Fenchel primal instead, solved by
:func:`~.fenchel.solve_primal` at each call: bang-bang on that pair except
at a few nodes, each of which becomes one switch inside its cell, and the
switch times are then polished onto the exact terminal map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dual import NODE_TOL, DualProblem, ExactEvaluator, find_switchings, staircase_integral
from .fenchel import InfeasiblePrimalError, build_discrete_primal, solve_primal

__all__ = [
    "DegenerateAdjointError",
    "ChannelControl",
    "MultilevelControl",
    "find_switchings",
    "extract_control",
    "complementary_slackness",
    "verify_staircase",
    "quadratic_control",
]

# degenerate selection: primal node values within NODE_TOL (relative to the
# ladder, shared with minimize's kink certificate) of a level count as that
# level; Gauss-Newton on the switch times runs at most POLISH_MAX_ITER steps
# and must bring the exact terminal norm to POLISH_TOL
POLISH_MAX_ITER = 20
POLISH_TOL = 1e-9


class DegenerateAdjointError(RuntimeError):
    """The degenerate adjoint datum handed to :func:`extract_control`, whose
    observation sits on a breakpoint over an interval, is not a dual
    minimizer: the discrete Fenchel primal is infeasible, its node values
    leave the subdifferential along the datum, or the level scale there is
    not positive.  As a safeguard it is also raised when the primal skips
    a level between neighbouring nodes, or when the selected staircase
    cannot be polished to steer x0 exactly.
    """


@dataclass(frozen=True)
class ChannelControl:
    """One channel's waveform: levels on the intervals between switch times."""

    switch_times: np.ndarray
    levels: np.ndarray
    level_set: np.ndarray

    def __post_init__(self):
        st = np.asarray(self.switch_times, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        ls = np.asarray(self.level_set, dtype=float)
        if lv.size != st.size + 1:
            raise ValueError("need exactly one level more than switch times")
        if st.size and np.any(np.diff(st) <= 0):
            raise ValueError("switch times must be strictly increasing")
        if np.any(lv[1:] == lv[:-1]):
            raise ValueError("consecutive levels must differ")
        object.__setattr__(self, "switch_times", st)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "level_set", ls)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.switch_times, t, side="right")
        out = self.levels[idx]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MultilevelControl:
    """Per-channel staircase waveforms plus the common intensity scale."""

    channels: tuple
    scale: float
    horizon: float

    def __call__(self, t):
        """Control vector at time t (length K), (len(t), K) for an array t."""
        return np.stack([ch(t) for ch in self.channels], axis=-1)

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    def to_record(self) -> dict:
        return {
            "scale": self.scale,
            "horizon": self.horizon,
            "channels": [
                {
                    "switch_times": ch.switch_times.tolist(),
                    "levels": ch.levels.tolist(),
                    "level_set": ch.level_set.tolist(),
                }
                for ch in self.channels
            ],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MultilevelControl":
        chans = tuple(
            ChannelControl(
                switch_times=np.asarray(c["switch_times"], dtype=float),
                levels=np.asarray(c["levels"], dtype=float),
                level_set=np.asarray(c["level_set"], dtype=float),
            )
            for c in rec["channels"]
        )
        return cls(channels=chans, scale=float(rec["scale"]), horizon=float(rec["horizon"]))


def extract_control(p_T_star, prob: DualProblem) -> MultilevelControl:
    """Staircase control associated with a converged adjoint datum.

    Levels are scale * (segment slope), with scale the slope of the kind's
    map at the exact integral term: 1 (plain), beta (scaled) or the
    integral itself (squared).  A regular datum gives the levels of the
    segments that B^T p visits and switches at its crossings, both read off
    :meth:`ExactEvaluator.pieces`.  A degenerate datum, with B^T p pinned on
    a breakpoint over an interval, leaves a choice between the two adjacent
    levels there, and one rule selects it:

    1. solve the discrete Fenchel primal of scale * penalization;
    2. check complementary slackness, every node value in scale times the
       slopes supporting the penalization at B^T p there, else raise
       :class:`DegenerateAdjointError` (:func:`~.dual.minimize` certified
       the datum by :func:`~.dual.steepest_subgradient` instead);
    3. hold each node value over its quadrature cell: a ladder value stays,
       a value between two adjacent levels becomes one switch inside the
       cell that splits it in the matching shares;
    4. polish the switch times by minimum-norm Gauss-Newton steps on the
       exact zero-order-hold terminal map, and raise rather than return a
       control whose times leave their cells or whose terminal norm stays
       above ``POLISH_TOL``.
    """
    if not prob.kind.penalized:
        raise ValueError("staircase extraction applies to the penalized kinds")
    p_T_star = np.asarray(p_T_star, dtype=float).reshape(-1)
    if p_T_star.shape[0] != prob.sys.dim:
        raise ValueError("p_T_star has the wrong length")

    evaluator = ExactEvaluator(prob)
    pieces = evaluator.pieces(p_T_star)
    scale = prob.outer_slope(lambda: evaluator.integral_and_grad(p_T_star, pieces)[0])
    if any(pinned for _, _, pinned in pieces):
        return _primal_staircase(prob, p_T_star, scale)
    chans = []
    for ch, (crossings, ks, _) in enumerate(pieces):
        level_set = scale * prob.penalizations[ch].slopes
        levels = level_set[ks]
        # a grazing touch can yield equal neighbours; merge them defensively
        keep_times, keep_levels = [], [levels[0]]
        for t_sw, lv in zip(crossings, levels[1:]):
            if lv == keep_levels[-1]:
                continue
            keep_times.append(t_sw)
            keep_levels.append(lv)
        chans.append(
            ChannelControl(
                switch_times=np.asarray(keep_times, dtype=float),
                levels=np.asarray(keep_levels, dtype=float),
                level_set=np.asarray(level_set, dtype=float),
            )
        )
    return MultilevelControl(channels=tuple(chans), scale=scale, horizon=prob.sys.T)


def complementary_slackness(prob: DualProblem, p_T, scale: float) -> np.ndarray:
    """Steps 1-2 of the degenerate selection: the primal node values at
    ``scale``, each checked to lie in ``scale`` times the slopes supporting
    the penalization at B^T p_T, which holds exactly when p_T minimizes the
    discrete dual; raises :class:`DegenerateAdjointError` otherwise."""
    if not (np.isfinite(scale) and scale > 0):
        # a zero scale (squared kind, zero integral) makes the gradient the
        # drift, which is nonzero with x0
        raise DegenerateAdjointError(f"the level scale {scale:g} at the datum is not positive")
    dp = build_discrete_primal(prob)
    try:
        v = solve_primal(replace(dp, c=dp.c / scale)).v * scale
    except InfeasiblePrimalError as exc:
        raise DegenerateAdjointError(f"the datum is not a minimizer: {exc}") from None
    q = prob.adjoint_observations(p_T)
    nodes = prob.grid.nodes
    for ch, pen in enumerate(prob.penalizations):
        tol = NODE_TOL * float(np.max(np.abs(scale * pen.slopes)))
        lo, hi = pen.slope_bounds(q[:, ch])
        off = np.nonzero((v[:, ch] < scale * lo - tol) | (v[:, ch] > scale * hi + tol))[0]
        if off.size:
            i = int(off[0])
            raise DegenerateAdjointError(
                f"the datum is not a minimizer: channel {ch}: the primal control "
                f"{v[i, ch]:.6g} at t = {nodes[i]:.6g} lies outside the subdifferential "
                f"[{scale * lo[i]:.6g}, {scale * hi[i]:.6g}] at B^T p = {q[i, ch]:.6g} "
                f"({off.size} of {nodes.size} nodes)"
            )
    return v


def _primal_staircase(prob: DualProblem, p_T, scale: float) -> MultilevelControl:
    """The degenerate selection of :func:`extract_control` (steps 1-4)."""
    v = complementary_slackness(prob, p_T, scale)
    nodes = prob.grid.nodes
    edges = np.concatenate([[0.0], 0.5 * (nodes[:-1] + nodes[1:]), [prob.sys.T]])
    ladders = [scale * pen.slopes for pen in prob.penalizations]
    plans = [_cell_staircase(v[:, ch], ladder, edges, ch) for ch, ladder in enumerate(ladders)]
    times = _polish(prob, plans, ladders)
    chans = tuple(
        ChannelControl(switch_times=st, levels=ladder[ks], level_set=ladder)
        for st, (_, ks, _), ladder in zip(times, plans, ladders)
    )
    return MultilevelControl(channels=chans, scale=scale, horizon=prob.sys.T)


def _cell_staircase(v, ladder, edges, ch):
    """(switch times, level indices, switch-time bounds) of the staircase
    that holds node value ``v[i]`` over the cell [edges[i], edges[i+1]].

    A value within ``NODE_TOL`` (relative to the ladder) of a level keeps
    that level; a value between two adjacent levels spends the matching
    shares of the cell on them, starting with the one nearer the level
    before.  A switch inside a cell may move within it, one on a cell edge
    within the two cells around it.
    """
    tol = NODE_TOL * float(np.max(np.abs(ladder)))
    times, ks, bounds = [], [], []
    for i, vi in enumerate(v):
        a, b = edges[i], edges[i + 1]
        j = int(np.argmin(np.abs(ladder - vi)))
        if abs(ladder[j] - vi) <= tol:
            cell = [(j, a)]
        else:
            j = int(np.searchsorted(ladder, vi)) - 1
            theta = (vi - ladder[j]) / (ladder[j + 1] - ladder[j])  # share of level j+1
            if ks and ks[-1] > j:
                cell = [(j + 1, a), (j, a + theta * (b - a))]
            else:
                cell = [(j, a), (j + 1, a + (1.0 - theta) * (b - a))]
        for k, t in cell:
            if ks and k == ks[-1]:
                continue
            if ks:
                if abs(k - ks[-1]) != 1:
                    raise DegenerateAdjointError(
                        f"channel {ch}: the primal control jumps from level {ladder[ks[-1]]:.6g} "
                        f"to {ladder[k]:.6g} at t = {a:.6g}; use a finer quadrature grid"
                    )
                times.append(t)
                bounds.append((edges[max(i - 1, 0)], b) if t == a else (a, b))
            ks.append(k)
    return np.asarray(times, dtype=float), np.asarray(ks, dtype=int), np.asarray(bounds).reshape(-1, 2)


def _polish(prob: DualProblem, plans, ladders):
    """Per-channel switch times after Gauss-Newton with minimum-norm steps
    on the exact terminal map, run until the terminal norm stops
    decreasing; raises unless the times stay strictly increasing inside
    their bounds and the terminal norm reaches ``POLISH_TOL``.  The map is
    e^{TA} x0 plus the :func:`~.dual.staircase_integral`; its derivative in
    tau_k is e^{(T - tau_k)A} B (u_{k-1} - u_k) on the channel's column."""
    levels = [ladder[ks] for ladder, (_, ks, _) in zip(ladders, plans)]
    sizes = [st.size for st, _, _ in plans]
    splits, ch = np.cumsum(sizes)[:-1], np.repeat(np.arange(len(plans)), sizes)
    tau = np.concatenate([st for st, _, _ in plans])
    bounds = np.concatenate([b for _, _, b in plans])
    jumps = np.concatenate([np.diff(lv) for lv in levels])

    def terminal(t):
        x = prob.drift + staircase_integral(prob, np.split(t, splits), levels)
        return x, -(prob.propagator.rows(t)[np.arange(t.size), ch] * jumps[:, None]).T

    x, J = terminal(tau)
    for _ in range(POLISH_MAX_ITER if tau.size else 0):
        step = np.linalg.lstsq(J, -x, rcond=None)[0]
        x_new, J_new = terminal(tau + step)
        if not np.linalg.norm(x_new) < np.linalg.norm(x):
            break
        tau, x, J = tau + step, x_new, J_new
    times = np.split(tau, splits)
    norm = float(np.linalg.norm(x))
    if np.any((tau < bounds[:, 0]) | (tau > bounds[:, 1])):
        raise DegenerateAdjointError("polishing moved a switch time out of its quadrature cell")
    if any(np.any(np.diff(st) <= 0) for st in times):
        raise DegenerateAdjointError("polishing reordered the switch times")
    if not norm <= POLISH_TOL:
        raise DegenerateAdjointError(
            f"the selected staircase leaves the terminal norm at {norm:.3g} > {POLISH_TOL:g}"
        )
    return times


def verify_staircase(ctrl: MultilevelControl, levels) -> tuple[bool, Optional[dict]]:
    """True when every jump is between adjacent members of the ladder.

    ``levels`` is the sorted ladder the waveform may use; a waveform level
    that is not a ladder member raises.  Returns (verdict, first violation)
    where the violation records channel, jump index and the two levels.
    """
    ladder = np.sort(np.asarray(levels, dtype=float).reshape(-1))
    for ci, ch in enumerate(ctrl.channels):
        idx = []
        for lv in ch.levels:
            d = np.abs(ladder - lv)
            j = int(np.argmin(d))
            if d[j] > 1e-9 * max(1.0, abs(lv)):
                raise ValueError(f"channel {ci}: level {lv} is not in the ladder")
            idx.append(j)
        for j in range(len(idx) - 1):
            if abs(idx[j + 1] - idx[j]) != 1:
                return False, {
                    "channel": ci,
                    "jump": j,
                    "from_level": float(ch.levels[j]),
                    "to_level": float(ch.levels[j + 1]),
                }
    return True, None


def quadratic_control(p_T_star, prob: DualProblem):
    """The stationarity-consistent control of the quadratic kinds.

    For the quadratic functional the null control is u(t) = 2 B^T p(t);
    the squared variant carries the integral of |B^T p|^2 as an extra
    intensity factor.  Returns a callable t -> (len(t), K) array, (K,) for a scalar t.
    """
    if prob.kind.penalized:
        raise ValueError("quadratic_control applies to the quadratic kinds")
    p_T_star = np.asarray(p_T_star, dtype=float).reshape(-1)
    factor = 2.0 * prob.outer_slope(lambda: prob.integral_term(p_T_star))
    q = prob.propagator.at(p_T_star)

    def u(t):
        vals = factor * q(t)
        return vals[0] if np.isscalar(t) or np.ndim(t) == 0 else vals

    return u
