"""Piecewise-linear convex functions: interpolation of a strictly convex
profile on a partition, slopes, subdifferentials, convex conjugates, barrier
constants and interpolation error bounds.

A :class:`PwlConvex` is kept in two synchronized forms: an ordered segment
list (slope, intercept per piece) for evaluation, and the equivalent
max-of-affines form for conjugation.  Outside its two extreme interpolation
points the function continues with the first/last chord unless a finite
``domain`` is set, in which case it is +inf there (conjugates are of this
second type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Partition",
    "ConvexProfile",
    "quadratic_profile",
    "PwlConvex",
    "SubdiffInterval",
    "build_penalization",
    "slopes",
    "subdifferential",
    "conjugate",
    "barrier_constants",
    "interp_error_bound",
]

# coincidence tolerance for breakpoints / equal slopes
COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    """Strictly increasing interpolation points u_1 < ... < u_{M+1}, M >= 2."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 3:
            raise ValueError("a partition needs at least 3 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("partition points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def segments(self) -> int:
        return self.points.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh_size(self) -> float:
        return float(np.max(self.widths))

    @classmethod
    def uniform(cls, lo: float, hi: float, segments: int) -> "Partition":
        return cls(np.linspace(lo, hi, segments + 1))


@dataclass(frozen=True)
class ConvexProfile:
    """Strictly convex C^2 profile: value and second-derivative evaluators.

    ``minimizer`` is the location of the profile's minimum when the caller
    wants it validated against the partition (None skips that check).
    """

    fun: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]
    minimizer: Optional[float] = None

    def __call__(self, u):
        return np.asarray(self.fun(np.asarray(u, dtype=float)), dtype=float)


def quadratic_profile() -> ConvexProfile:
    """The reference profile u^2 with minimum at the origin."""
    return ConvexProfile(
        fun=lambda u: u * u,
        second_derivative=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
        minimizer=0.0,
    )


@dataclass(frozen=True)
class SubdiffInterval:
    """Closed interval of supporting slopes; endpoints may be infinite."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("subdifferential interval has lower > upper")

    def contains(self, v: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= v <= self.upper + slack


class PwlConvex:
    """Convex piecewise-linear function in segment + max-of-affines form.

    ``slopes`` are strictly increasing, ``intercepts`` the matching affine
    offsets, ``breakpoints`` the kinks between consecutive pieces.  ``domain``
    is (-inf, +inf) for chord-extended functions; conjugates carry a finite
    domain and are +inf outside of it.  ``interval`` records the original
    interpolation range when built from a profile.
    """

    def __init__(self, slopes, intercepts, domain=(-np.inf, np.inf), interval=None):
        a = np.asarray(slopes, dtype=float).reshape(-1)
        c = np.asarray(intercepts, dtype=float).reshape(-1)
        if a.size == 0 or a.size != c.size:
            raise ValueError("slopes and intercepts must be non-empty and matched")
        order = np.argsort(a, kind="stable")
        a, c = a[order], c[order]
        a, c = _merge_and_prune(a, c)
        self.slopes = a
        self.intercepts = c
        self.breakpoints = (c[:-1] - c[1:]) / (a[1:] - a[:-1]) if a.size > 1 else np.empty(0)
        if self.breakpoints.size > 1 and np.any(np.diff(self.breakpoints) < -COINCIDENCE_TOL):
            raise ValueError("pieces do not form a convex upper envelope")
        lo, hi = float(domain[0]), float(domain[1])
        if lo > hi:
            raise ValueError("empty domain")
        self.domain = (lo, hi)
        self.interval = None if interval is None else (float(interval[0]), float(interval[1]))
        # continuity across shared breakpoints (1e-12 scale)
        if self.breakpoints.size:
            left = a[:-1] * self.breakpoints + c[:-1]
            right = a[1:] * self.breakpoints + c[1:]
            scale = 1.0 + np.abs(left)
            if np.any(np.abs(left - right) > 1e-9 * scale):
                raise ValueError("adjacent pieces disagree at a shared breakpoint")

    # -- queries -----------------------------------------------------------

    @property
    def pieces(self) -> int:
        return self.slopes.size

    def segment_index(self, u) -> np.ndarray:
        # the pieces - 1 breakpoints give indices 0 .. pieces - 1, NaN the last
        return np.searchsorted(self.breakpoints, np.asarray(u, dtype=float))

    def value(self, u):
        """Evaluate via the segment list; +inf outside a finite domain."""
        u = np.asarray(u, dtype=float)
        k = self.segment_index(u)
        out = self.slopes[k] * u + self.intercepts[k]
        lo, hi = self.domain
        if np.isfinite(lo) or np.isfinite(hi):
            out = np.where((u < lo - COINCIDENCE_TOL) | (u > hi + COINCIDENCE_TOL), np.inf, out)
        return out if out.ndim else float(out)

    def slope_bounds(self, u, tol: float = COINCIDENCE_TOL):
        """Elementwise interval (lo, hi) of the slopes supporting f at ``u``.

        Off the kinks this is the segment slope twice; within ``tol`` of a
        breakpoint it is the two adjacent slopes, and within ``tol`` of a
        finite domain end it is half-infinite (all of R on a single-point
        domain).  Points outside a finite domain are not checked.
        """
        u = np.asarray(u, dtype=float)
        k = self.segment_index(u)
        lo = hi = self.slopes[k]
        b = self.breakpoints
        if b.size:
            # the nearest breakpoint is one of the two around u's segment
            left, right = np.maximum(k - 1, 0), np.minimum(k, b.size - 1)
            j = np.where(np.abs(u - b[left]) <= np.abs(u - b[right]), left, right)
            on = np.abs(u - b[j]) <= tol
            lo, hi = np.where(on, self.slopes[j], lo), np.where(on, self.slopes[j + 1], hi)
        d_lo, d_hi = self.domain
        if np.isfinite(d_lo) or np.isfinite(d_hi):
            at_lo, at_hi = np.abs(u - d_lo) <= tol, np.abs(u - d_hi) <= tol
            lo = np.where(at_lo, -np.inf, np.where(at_hi, self.slopes[-1], lo))
            hi = np.where(at_hi, np.inf, np.where(at_lo, self.slopes[0], hi))
        return lo, hi

    def selection(self, u) -> np.ndarray:
        """A pointwise subgradient: the midpoint of :meth:`slope_bounds`."""
        lo, hi = self.slope_bounds(np.atleast_1d(u))
        return 0.5 * (lo + hi)

    def __repr__(self):
        return (
            f"PwlConvex(pieces={self.pieces}, slopes=[{self.slopes[0]:g}..{self.slopes[-1]:g}], "
            f"domain={self.domain})"
        )


def _merge_and_prune(a, c):
    """Merge near-equal slopes (keep the dominant intercept) and drop pieces
    that never attain the upper envelope."""
    keep_a, keep_c = [a[0]], [c[0]]
    for ai, ci in zip(a[1:], c[1:]):
        if abs(ai - keep_a[-1]) <= COINCIDENCE_TOL * max(1.0, abs(ai)):
            keep_c[-1] = max(keep_c[-1], ci)
        else:
            keep_a.append(ai)
            keep_c.append(ci)
    a, c = np.array(keep_a), np.array(keep_c)
    # upper-envelope pruning: piece j is redundant when the kink with its
    # left survivor does not precede the kink with the next piece
    out_a, out_c = [], []
    for ai, ci in zip(a, c):
        while out_a:
            if len(out_a) >= 2:
                x_prev = (out_c[-2] - out_c[-1]) / (out_a[-1] - out_a[-2])
            else:
                x_prev = -np.inf
            x_new = (out_c[-1] - ci) / (ai - out_a[-1])
            if x_new <= x_prev + 0.0:
                out_a.pop()
                out_c.pop()
            else:
                break
        out_a.append(ai)
        out_c.append(ci)
    return np.array(out_a), np.array(out_c)


def build_penalization(profile: ConvexProfile, part: Partition) -> PwlConvex:
    """Chord interpolation of ``profile`` on ``part``, extended by the first
    and last chords beyond the extreme points.

    The result matches the profile exactly at every partition point.  When
    the profile declares a minimizer inside the interpolation interval it
    must be one of the partition points.
    """
    pts = part.points
    vals = profile(pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError("profile is not evaluable at every partition point")
    if np.any(vals < -COINCIDENCE_TOL):
        raise ValueError("profile must be non-negative on the partition")
    d2 = np.asarray(profile.second_derivative(0.5 * (pts[:-1] + pts[1:])), dtype=float)
    if np.any(d2 <= 0):
        raise ValueError("profile must be strictly convex on the partition")
    if profile.minimizer is not None and pts[0] <= profile.minimizer <= pts[-1]:
        if np.min(np.abs(pts - profile.minimizer)) > COINCIDENCE_TOL:
            raise ValueError(
                "profile minimizer must coincide with a partition point "
                f"(minimizer={profile.minimizer})"
            )
    seg_slopes = np.diff(vals) / np.diff(pts)
    if np.any(np.diff(seg_slopes) <= 0):
        raise ValueError("chord slopes must be strictly increasing (convexity)")
    icpts = vals[:-1] - seg_slopes * pts[:-1]
    return PwlConvex(seg_slopes, icpts, interval=(pts[0], pts[-1]))


def slopes(pwl: PwlConvex) -> np.ndarray:
    """Segment slopes in increasing order; these are the control levels the
    staircase synthesis can produce."""
    return pwl.slopes.copy()


def subdifferential(pwl: PwlConvex, u: float, clamped: bool = False) -> SubdiffInterval:
    """Supporting-slope interval at ``u``.

    Off breakpoints this is the singleton segment slope; at a breakpoint it
    is the closed interval of the two adjacent slopes.  With ``clamped=True``
    the function is treated as restricted to its interpolation interval, so
    the ends carry half-infinite intervals.  For a finite ``domain`` (a
    conjugate) the ends are half-infinite as well and points outside raise.
    """
    u = float(u)
    if not np.isfinite(u):
        raise ValueError("u must be finite")
    lo, hi = pwl.domain
    if u < lo - COINCIDENCE_TOL or u > hi + COINCIDENCE_TOL:
        raise ValueError(f"u={u} lies outside the domain [{lo}, {hi}]")
    if clamped:
        if pwl.interval is None:
            raise ValueError("clamped query needs an interpolation interval")
        w1, w2 = pwl.interval
        if u < w1 - COINCIDENCE_TOL or u > w2 + COINCIDENCE_TOL:
            raise ValueError(f"u={u} lies outside the clamped interval [{w1}, {w2}]")
        if abs(u - w1) <= COINCIDENCE_TOL:
            return SubdiffInterval(-np.inf, pwl.slopes[0])
        if abs(u - w2) <= COINCIDENCE_TOL:
            return SubdiffInterval(pwl.slopes[-1], np.inf)
    lower, upper = pwl.slope_bounds(u)
    return SubdiffInterval(float(lower), float(upper))


def conjugate(pwl: PwlConvex) -> PwlConvex:
    """Convex conjugate sup_u (u v - f(u)).

    The conjugate's pieces have slope x and intercept -f(x) for every corner
    x of the graph (interior breakpoints, plus finite domain endpoints).  The
    conjugate is finite exactly on [smallest slope, largest slope] in each
    direction where the original function extends to infinity.
    """
    lo, hi = pwl.domain
    xs, fs = [], []
    if np.isfinite(lo):
        xs.append(lo)
        fs.append(float(pwl.value(lo)))
    for b in pwl.breakpoints:
        xs.append(float(b))
        fs.append(float(pwl.value(b)))
    if np.isfinite(hi):
        xs.append(hi)
        fs.append(float(pwl.value(hi)))
    if not xs:
        # single affine piece on all of R: conjugate is finite at one point
        a0, c0 = float(pwl.slopes[0]), float(pwl.intercepts[0])
        return PwlConvex([0.0], [-c0], domain=(a0, a0))
    new_lo = -np.inf if np.isfinite(lo) else float(pwl.slopes[0])
    new_hi = np.inf if np.isfinite(hi) else float(pwl.slopes[-1])
    return PwlConvex(xs, [-f for f in fs], domain=(new_lo, new_hi))


def barrier_constants(pwl: PwlConvex, interval) -> tuple[float, float]:
    """Constants (a1, a2) with a1 |u| <= f(u) <= a2 |u| on ``interval``.

    Requires f(0) = 0 with 0 a breakpoint (or partition point), so that the
    ratio f(u)/|u| is well defined and positive away from the origin.
    """
    w1, w2 = float(interval[0]), float(interval[1])
    if not (w1 < 0.0 < w2):
        raise ValueError("interval must contain 0 in its interior")
    if abs(float(pwl.value(0.0))) > COINCIDENCE_TOL:
        raise ValueError("barriers of the form a|u| need f(0) = 0")
    anchored = pwl.breakpoints.size and np.min(np.abs(pwl.breakpoints)) <= COINCIDENCE_TOL
    if not anchored and pwl.interval is not None:
        # 0 may be an extreme interpolation point rather than a kink
        anchored = min(abs(pwl.interval[0]), abs(pwl.interval[1])) <= COINCIDENCE_TOL
    if not anchored:
        raise ValueError("barriers need 0 among the breakpoints of the penalization")
    cands = [w1, w2]
    cands += [float(b) for b in pwl.breakpoints if w1 <= b <= w2 and abs(b) > COINCIDENCE_TOL]
    ratios = [float(pwl.value(u)) / abs(u) for u in cands]
    # one-sided limits at the origin: |adjacent segment slopes|
    k_right = int(pwl.segment_index(COINCIDENCE_TOL * 10))
    k_left = int(pwl.segment_index(-COINCIDENCE_TOL * 10))
    ratios.append(abs(float(pwl.slopes[k_right])))
    ratios.append(abs(float(pwl.slopes[k_left])))
    a1, a2 = min(ratios), max(ratios)
    if a1 <= 0:
        raise ValueError("penalization vanishes away from the origin; no lower barrier")
    return float(a1), float(a2)


def interp_error_bound(profile: ConvexProfile, part: Partition):
    """Per-segment and global chord-interpolation error bounds.

    Each segment bound is (h_k^2 / 2) * max |profile''| over the segment
    (second derivative sampled at 33 points); the global bound uses
    the largest width and the overall sampled maximum.
    """
    pts = part.points
    seg_bounds = np.empty(part.segments)
    overall = 0.0
    for k in range(part.segments):
        xs = np.linspace(pts[k], pts[k + 1], 33)
        m = float(np.max(np.abs(profile.second_derivative(xs))))
        seg_bounds[k] = 0.5 * part.widths[k] ** 2 * m
        overall = max(overall, m)
    return seg_bounds, float(0.5 * part.mesh_size**2 * overall)
