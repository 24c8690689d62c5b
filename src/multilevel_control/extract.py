"""From an optimal adjoint datum to an explicit staircase control.

The adjoint observation q(t) = B^T p(t) is analytic, so it crosses any
penalization breakpoint finitely often.  :meth:`~.dual.ExactEvaluator.pieces`
reads its crossings and the segment between them, the reading that the
exact dual evaluation integrates; its crossing search,
:func:`~.dual.find_switchings`, lives in :mod:`.dual` and is re-exported
here.  This module turns the pieces into staircases: between crossings the
control level is the slope of the penalization segment containing q.

Where the datum is degenerate, with q pinned on a breakpoint over the
horizon on some channel (the zero datum whenever 0 is a breakpoint), every
control that takes the two adjacent slopes there and steers x0 is optimal.
On a Chebyshev system such a control exists with N switches per pinned
channel, the principal representation of a moment point (Krein & Nudelman,
*The Markov Moment Problem and Extremal Problems*, AMS 1977); an
oscillating plant on a long horizon may need more.  The selection places
the switches by Gauss-Newton on the exact terminal map, from N per pinned
channel upwards.  Extraction solves no linear program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dual import DualProblem, ExactEvaluator, find_switchings, moment_weights, staircase_integral, steepest_subgradient

__all__ = [
    "DegenerateAdjointError",
    "ChannelControl",
    "MultilevelControl",
    "find_switchings",
    "extract_control",
    "verify_staircase",
    "quadratic_control",
]

# degenerate selection: Gauss-Newton on the switch times runs at most
# POLISH_MAX_ITER steps and must bring the exact terminal norm to POLISH_TOL;
# a pinned channel's switch whose gap to its neighbour, 0 or T is below
# COLLAPSE_GAP T before a step that closes it is dropped, not crept towards
POLISH_MAX_ITER = 20
POLISH_TOL = 1e-9
COLLAPSE_GAP = 1e-2


class DegenerateAdjointError(RuntimeError):
    """The degenerate adjoint datum handed to :func:`extract_control`, whose
    observation sits on a breakpoint over the horizon on some channel,
    yields no staircase: the level scale there is not positive, or no
    staircase between the two levels around each pinned breakpoint steers
    x0 to within ``POLISH_TOL``.  The message says "not a minimizer" only
    where the minimum-norm subgradient also rejects the datum.
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
    a breakpoint over the horizon on some channels, leaves a choice between
    the two adjacent levels there, and one rule selects it.  Each pinned
    channel gets m switch times at T k / (m + 1), alternating between the
    two levels around the breakpoint nearest its B^T p in either order, the
    other channels keep their crossings, and :func:`_steer` solves for the
    times of every channel.  m runs from N = ``sys.dim`` up to N + T omega /
    pi, omega the largest imaginary part of an eigenvalue of A.  At the
    first m where some of the 2^P start orders (P pinned channels) steer x0
    to within ``POLISH_TOL``, the staircase with the least moment of
    :func:`~.dual.moment_weights` is returned, the moment that
    :func:`~.fenchel.solve_primal` minimizes over its optimal face.  Such a
    staircase certifies the datum a minimizer; if none steers, or the level
    scale is not positive, :class:`DegenerateAdjointError` is raised.
    """
    if not prob.kind.penalized:
        raise ValueError("staircase extraction applies to the penalized kinds")
    p_T_star = np.asarray(p_T_star, dtype=float).reshape(-1)
    if p_T_star.shape[0] != prob.sys.dim:
        raise ValueError("p_T_star has the wrong length")

    evaluator = ExactEvaluator(prob)
    pieces = evaluator.pieces(p_T_star)
    scale = prob.outer_slope(lambda: evaluator.integral_and_grad(p_T_star, pieces)[0])
    ladders = [scale * pen.slopes for pen in prob.penalizations]
    times = [crossings for crossings, _, _ in pieces]
    levels = [ladder[ks] for ladder, (_, ks, _) in zip(ladders, pieces)]
    pinned = [ch for ch, (_, _, on_kink) in enumerate(pieces) if on_kink]
    if pinned:
        times, levels = _pinned_staircase(prob, p_T_star, pinned, scale, times, levels)
    chans = []
    for st, lv, ladder in zip(times, levels, ladders):
        # a grazing touch can yield equal neighbours; merge them defensively
        keep = np.flatnonzero(np.diff(lv) != 0)
        chans.append(ChannelControl(np.asarray(st, dtype=float)[keep], np.append(lv[0], lv[keep + 1]), ladder))
    return MultilevelControl(channels=tuple(chans), scale=scale, horizon=prob.sys.T)


def _pinned_staircase(prob: DualProblem, p_T, pinned, scale: float, times, levels):
    """The degenerate selection of :func:`extract_control`: the per-channel
    switch times and levels, from the indices of the ``pinned`` channels and
    the ``times`` and ``levels`` of the crossings."""
    if not (np.isfinite(scale) and scale > 0):
        # a zero scale (squared kind, zero integral) makes the gradient the
        # drift, which is nonzero with x0
        raise DegenerateAdjointError(f"the level scale {scale:g} at the datum is not positive")
    sys = prob.sys
    T, N = sys.T, sys.dim
    # a combination of the rows e^{(T-t)A} B_c, which a boundary control's
    # switches follow, changes sign at most N - 1 times on a Chebyshev
    # system, and about once more per pi / omega where A oscillates at omega
    most = N + int(np.ceil(T * np.abs(np.linalg.eigvals(sys.A).imag).max() / np.pi))
    q = prob.adjoint_observations(p_T)
    pairs = {}
    for ch in pinned:
        pen = prob.penalizations[ch]
        j = int(np.argmin(np.abs(pen.breakpoints - q[:, ch].mean())))
        pairs[ch] = scale * pen.slopes[[j, j + 1]]
    nodes, weights = prob.grid.nodes, moment_weights(prob.grid.nodes, prob.grid.weights)
    closest = np.inf
    for m in range(N, most + 1):
        steered = []
        for firsts in itertools.product((0, 1), repeat=len(pinned)):
            start_times, start_levels = list(times), list(levels)
            for ch, first in zip(pinned, firsts):
                start_times[ch] = T * np.arange(1, m + 1) / (m + 1)
                start_levels[ch] = pairs[ch][(first + np.arange(m + 1)) % 2]
            end_times, end_levels, norm, _ = _steer(prob, start_times, start_levels, pinned)
            closest = min(closest, norm)
            if norm <= POLISH_TOL:
                moment = sum(weights @ lv[np.searchsorted(st, nodes, side="right")] for st, lv in zip(end_times, end_levels))
                steered.append((float(moment), end_times, end_levels))
        if steered:
            return min(steered, key=lambda c: c[0])[1:]
    tried = f"no staircase with {N} to {most} switches per pinned channel steers x0 (closest terminal norm {closest:.6g})"
    s, radius = steepest_subgradient(prob, p_T, q)
    s = float(np.linalg.norm(s))
    verdict = f"not a minimizer: its least subgradient norm {s:.6g} > {radius:g}" if s > radius else "certified"
    raise DegenerateAdjointError(f"the datum is {verdict}, but {tried}")


def _steer(prob: DualProblem, times, levels, pinned):
    """(per-channel switch times, levels, terminal norm, steps) after
    Gauss-Newton with minimum-norm steps on the exact terminal map, started
    at ``times`` and ``levels`` and run until the norm stops decreasing.  A
    step is halved until the norm falls with every channel's times strictly
    increasing inside (0, T).  Only a gap narrower than ``COLLAPSE_GAP`` T
    on one of the ``pinned`` channels, whose levels alternate, may close: a
    switch that leaves (0, T) there is dropped with the level outside, and
    two that meet or cross with the level between them, a staircase the map
    reaches continuously.  The map is e^{TA} x0 plus the
    :func:`~.dual.staircase_integral`; its derivative in tau_k is
    e^{(T - tau_k)A} B (u_{k-1} - u_k) on the channel's column."""
    T = prob.sys.T

    def terminal(times, levels):
        tau, ch = np.concatenate(times), np.repeat(np.arange(len(times)), [st.size for st in times])
        jumps = np.concatenate([np.diff(lv) for lv in levels])[:, None]
        x = prob.drift + staircase_integral(prob, times, levels)
        return x, -(prob.propagator.rows(tau)[np.arange(tau.size), ch] * jumps).T

    def moved(step):
        out_times, out_levels = [], []
        for ch, (st, lv, d) in enumerate(zip(times, levels, np.split(step, np.cumsum([st.size for st in times])[:-1]))):
            thin = (ch in pinned) & (np.diff([0.0, *st, T]) < COLLAPSE_GAP * T)
            if np.any((np.diff([0.0, *(st + d), T]) <= 0) & ~thin):
                return None
            st, lv = list(st + d), list(lv)
            while st:
                gaps = np.diff([0.0, *st, T])
                if gaps[0] <= 0:
                    del st[0], lv[0]
                elif gaps[-1] <= 0:
                    del st[-1], lv[-1]
                elif np.any(gaps <= 0):
                    k = int(np.argmax(gaps <= 0))
                    del st[k - 1 : k + 1], lv[k : k + 2]
                else:
                    break
            out_times.append(np.array(st, dtype=float))
            out_levels.append(np.array(lv, dtype=float))
        return out_times, out_levels

    x, J = terminal(times, levels)
    steps = 0
    while steps < POLISH_MAX_ITER and J.size:
        step, s = np.linalg.lstsq(J, -x, rcond=None)[0], 1.0
        while s * np.abs(step).max() > np.finfo(float).eps * T:
            trial = moved(s * step)
            if trial is not None:
                x_new, J_new = terminal(*trial)
                if np.linalg.norm(x_new) < np.linalg.norm(x):
                    break
            s /= 2
        else:
            break
        (times, levels), x, J, steps = trial, x_new, J_new, steps + 1
    return times, levels, float(np.linalg.norm(x)), steps


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
