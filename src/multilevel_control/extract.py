"""From an optimal adjoint datum to an explicit staircase control.

The adjoint observation q(t) = B^T p(t) is analytic, so it crosses any
penalization breakpoint finitely often; each crossing is bracketed on a
dense grid and refined by bisection.  Between crossings the control level is
the slope of the penalization segment containing q, sampled at the interval
midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .dual import ExactEvaluator

if TYPE_CHECKING:  # pragma: no cover
    from .dual import DualProblem

__all__ = [
    "DegenerateAdjointError",
    "ChannelControl",
    "MultilevelControl",
    "find_switchings",
    "extract_control",
    "verify_staircase",
    "quadratic_control",
]

BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 50


class DegenerateAdjointError(RuntimeError):
    """The adjoint observation sits on a penalization breakpoint over an
    interval of positive length, so no staircase selection is defined.

    Two ways this arises: the optimal adjoint datum is (numerically) zero
    while the initial state is not, or the system admits constant adjoint
    observations (singular A^T) pinned exactly to a kink.  Either way the
    optimal controls live strictly inside the subdifferential at the kink
    and are not staircase functions over the slope ladder.
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
        """Control vector at time t (length K)."""
        return np.array([ch(t) for ch in self.channels])

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    @property
    def total_switches(self) -> int:
        return int(sum(ch.switch_times.size for ch in self.channels))

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


def find_switchings(q, breakpoints, grid, samples=None, midpoint_guard=True):
    """Interior times where ``q`` crosses any breakpoint value.

    ``q`` maps an array of times to values, ``grid`` brackets the crossings.
    Each sign change is refined by bisection to 1e-12 absolute.  Grid points
    where q equals a breakpoint without a sign change across the neighbours
    are tangential touches and are returned separately, not as switches.

    Returns (sorted crossing times, sorted touch times).  With
    ``midpoint_guard`` the cell midpoints are also sampled; a sign flip
    hidden inside a single cell (two crossings) raises with a request for a
    finer grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("bracketing grid must be strictly increasing")
    qq = np.asarray(q(grid), dtype=float).reshape(-1) if samples is None else np.asarray(samples, dtype=float).reshape(-1)
    if qq.size != grid.size:
        raise ValueError("sample count does not match the grid")
    breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float))

    lo_list: list[float] = []
    hi_list: list[float] = []
    bk_list: list[float] = []
    flo_list: list[float] = []
    crossings: list[float] = []
    touches: list[float] = []
    for bk in breakpoints:
        f = qq - bk
        sgn = np.sign(f)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            lo_list.append(grid[i])
            hi_list.append(grid[i + 1])
            bk_list.append(bk)
            flo_list.append(f[i])
        # exact hits at grid nodes: crossing or tangential touch
        for i in np.nonzero(sgn == 0)[0]:
            before = sgn[:i][sgn[:i] != 0]
            after = sgn[i + 1 :][sgn[i + 1 :] != 0]
            if before.size == 0 or after.size == 0:
                continue
            if before[-1] * after[0] < 0:
                if 0 < i < grid.size - 1:
                    crossings.append(float(grid[i]))
            else:
                touches.append(float(grid[i]))
        if midpoint_guard:
            mids = 0.5 * (grid[:-1] + grid[1:])
            fm = np.sign(np.asarray(q(mids), dtype=float).reshape(-1) - bk)
            same = sgn[:-1] * sgn[1:] > 0
            hidden = same & (fm * sgn[:-1] < 0)
            if np.any(hidden):
                cell = int(np.nonzero(hidden)[0][0])
                raise ValueError(
                    "two crossings of level "
                    f"{bk} inside the grid cell [{grid[cell]}, {grid[cell+1]}]; "
                    "use a finer bracketing grid"
                )
    if lo_list:
        # refine all brackets together, one vectorized evaluation per step
        lo = np.array(lo_list)
        hi = np.array(hi_list)
        bks = np.array(bk_list)
        f_lo = np.array(flo_list)
        for _ in range(BISECTION_MAX_ITER):
            if np.all(hi - lo <= BISECTION_TOL):
                break
            mid = 0.5 * (lo + hi)
            f_mid = np.asarray(q(mid), dtype=float).reshape(-1) - bks
            right = f_lo * f_mid > 0
            hi = np.where(right, hi, mid)
            lo = np.where(right, mid, lo)
            f_lo = np.where(right, f_mid, f_lo)
        crossings.extend((0.5 * (lo + hi)).tolist())
    eps = 10 * BISECTION_TOL
    a, b = grid[0], grid[-1]
    crossings = [t for t in crossings if a + eps < t < b - eps]
    return np.sort(np.array(crossings)), np.sort(np.array(touches))


def _channel_pieces(prob: "DualProblem", p_T, ch: int):
    """Switching times and per-interval segment indices for one channel."""
    pen = prob.penalizations[ch]
    tb, rows_b = prob.bracket_grid()
    samples = (rows_b @ p_T)[:, ch]

    def qfun(t):
        return prob.propagator(t, p_T)[:, ch]

    crossings, touches = find_switchings(qfun, pen.breakpoints, tb, samples=samples)
    ts = np.concatenate([[0.0], crossings, [prob.sys.T]])
    ks = []
    for a, b in zip(ts[:-1], ts[1:]):
        k = None
        for frac in (0.5, 0.35, 0.65, 0.2, 0.8):
            m = a + frac * (b - a)
            qm = float(qfun(np.array([m]))[0])
            lo, hi = pen.slope_bounds(qm)
            if lo != hi:  # on a kink
                continue
            k = int(pen.segment_index(qm))
            break
        if k is None:
            raise DegenerateAdjointError(
                f"channel {ch}: adjoint observation equals a penalization breakpoint "
                f"on [{a:.6g}, {b:.6g}]; the staircase selection is undefined there"
            )
        ks.append(k)
    return crossings, touches, ks


def extract_control(p_T_star, prob: "DualProblem") -> MultilevelControl:
    """Staircase control associated with a converged adjoint datum.

    Levels are scale * (segment slope), where scale is the slope of the
    kind's map at the exact integral term along the optimal adjoint: 1 for
    the plain kind, beta for the scaled kind and the integral itself for the
    squared kind.
    """
    if not prob.kind.penalized:
        raise ValueError("staircase extraction applies to the penalized kinds")
    p_T_star = np.asarray(p_T_star, dtype=float).reshape(-1)
    if p_T_star.shape[0] != prob.sys.dim:
        raise ValueError("p_T_star has the wrong length")

    if float(np.linalg.norm(p_T_star)) <= 1e-12:
        if float(np.linalg.norm(prob.sys.x0)) > 1e-10:
            raise DegenerateAdjointError(
                "the optimal adjoint datum is zero while x0 is not: the optimal "
                "controls live inside the subdifferential at the penalization "
                "minimum and have no staircase representative"
            )
        chans = tuple(
            ChannelControl(
                switch_times=np.empty(0),
                levels=np.array([0.0]),
                level_set=np.asarray(prob.penalizations[ch].slopes, dtype=float),
            )
            for ch in range(prob.channels)
        )
        return MultilevelControl(channels=chans, scale=1.0, horizon=prob.sys.T)

    scale = prob.outer_slope(lambda: ExactEvaluator(prob).integral_and_grad(p_T_star)[0])

    chans = []
    for ch in range(prob.channels):
        crossings, _touches, ks = _channel_pieces(prob, p_T_star, ch)
        level_set = scale * prob.penalizations[ch].slopes
        levels = level_set[np.asarray(ks, dtype=int)]
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


def quadratic_control(p_T_star, prob: "DualProblem"):
    """The stationarity-consistent control of the quadratic kinds.

    For the quadratic functional the null control is u(t) = 2 B^T p(t);
    the squared variant carries the integral of |B^T p|^2 as an extra
    intensity factor.  Returns a callable t -> (K,) array.
    """
    if prob.kind.penalized:
        raise ValueError("quadratic_control applies to the quadratic kinds")
    p_T_star = np.asarray(p_T_star, dtype=float).reshape(-1)
    factor = 2.0 * prob.outer_slope(lambda: prob.integral_term(p_T_star))

    def u(t):
        vals = factor * prob.propagator(t, p_T_star)
        return vals[0] if np.isscalar(t) or np.ndim(t) == 0 else vals

    return u
