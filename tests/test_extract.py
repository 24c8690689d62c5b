import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from multilevel_control import (
    ChannelControl,
    ConvexProfile,
    DegenerateAdjointError,
    DualProblem,
    LtiSystem,
    MultilevelControl,
    OptimizerSettings,
    Partition,
    QuadratureGrid,
    SolveStatus,
    build_penalization,
    extract_control,
    find_switchings,
    minimize,
    quadratic_control,
    quadratic_profile,
    simulate_forward,
    slopes,
    subgradient_box,
    verify_staircase,
)
from multilevel_control import extract
from multilevel_control.dual import BISECTION_MAX_ITER, BISECTION_TOL, FLOOR, GTOL, ROUNDING, ExactEvaluator, _cuts
from multilevel_control.extract import POLISH_TOL
from multilevel_control.lti import exp_action_integral

A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
B_OSC = np.array([[0.0], [1.0]])
X0 = np.array([-1.0, 0.5])


def six_point_ladder():
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))


def solved_oscillator(kind="plain", T=4.0, x0=X0, beta=1.0):
    sys = LtiSystem(A=A_OSC, B=B_OSC, x0=x0, T=T)
    prob = DualProblem(sys, [six_point_ladder()], kind=kind, beta=beta)
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED
    return prob, rep


class TestFindSwitchings:
    def test_sine_crosses_zero_once_inside(self):
        grid = np.linspace(0, 2 * np.pi, 201)
        crossings, touches = find_switchings(np.sin, [0.0], grid)
        assert crossings.size == 1
        assert crossings[0] == pytest.approx(np.pi, abs=1e-12)
        assert touches.size == 0

    def test_monotone_crosses_three_levels_in_order(self):
        grid = np.linspace(0, 1, 101)
        q = lambda t: 3.0 * np.asarray(t) - 1.5
        crossings, _ = find_switchings(q, [-0.75, 0.0, 0.75], grid)
        assert crossings.size == 3
        assert np.all(np.diff(crossings) > 0)
        assert np.allclose(crossings, [0.25, 0.5, 0.75], atol=1e-12)

    def test_constant_inside_segment_no_switchings(self):
        grid = np.linspace(0, 1, 11)
        crossings, touches = find_switchings(lambda t: 0.2 * np.ones_like(np.asarray(t)), [0.0, 0.5], grid)
        assert crossings.size == 0 and touches.size == 0

    def test_tangential_touch_reported_separately(self):
        # sin touches level 1 at pi/2 without a sign change
        grid = np.linspace(0, np.pi, 9)  # contains pi/2 exactly
        crossings, touches = find_switchings(np.sin, [1.0], grid)
        assert crossings.size == 0
        assert touches.size == 1
        assert touches[0] == pytest.approx(np.pi / 2, abs=1e-15)

    def test_refinement_accuracy(self):
        grid = np.linspace(0, 2, 41)
        q = lambda t: np.cos(np.asarray(t) * 1.7) - 0.4
        crossings, _ = find_switchings(q, [0.0], grid)
        root = np.arccos(0.4) / 1.7
        assert crossings.size == 1
        assert abs(crossings[0] - root) < 1e-11


def _illinois(q, a, b, fa, fb, bk):
    """One bracket refined by the Illinois rule in scalar steps: b is the
    newest end and a the older one; the secant point, kept at least
    BISECTION_TOL / 2 inside the bracket, or the midpoint where it is not
    strictly inside, becomes b, and a step that keeps a halves its value;
    stop at width BISECTION_TOL or an exact zero."""
    for _ in range(BISECTION_MAX_ITER):
        if not abs(b - a) > BISECTION_TOL:
            break
        lo, hi = min(a, b), max(a, b)
        x = min(max(b - fb * (b - a) / (fb - fa), lo + 0.5 * BISECTION_TOL), hi - 0.5 * BISECTION_TOL)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = float(q(np.array([x]))[0]) - bk
        if fx == 0:
            a = b = x
        elif (fx > 0) != (fb > 0):
            a, fa, b, fb = b, fb, x, fx
        else:
            fa, b, fb = 0.5 * fa, x, fx
    return 0.5 * (a + b)


def _find_switchings_reference(q, breakpoints, grid, samples=None):
    """find_switchings as a per-breakpoint np.sign scan with Python lists,
    and each bracket refined on its own by :func:`_illinois`."""
    grid = np.asarray(grid, dtype=float)
    qq = np.asarray(q(grid), dtype=float).reshape(-1) if samples is None else np.asarray(samples, dtype=float).reshape(-1)
    breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float))
    brackets, crossings, touches = [], [], []
    for bk in breakpoints:
        f = qq - bk
        sgn = np.sign(f)
        for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
            brackets.append((grid[i], grid[i + 1], f[i], f[i + 1], bk))
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
    crossings.extend(_illinois(q, *bracket) for bracket in brackets)
    eps = 10 * BISECTION_TOL
    crossings = [t for t in crossings if grid[0] + eps < t < grid[-1] - eps]
    return np.sort(np.array(crossings)), np.sort(np.array(touches))


# Values drawn from a few levels, so that samples hit breakpoints exactly,
# touch them and run along them.
LEVELS = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]
level_or_float = st.one_of(st.sampled_from(LEVELS), st.floats(-1.5, 1.5))


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(level_or_float, min_size=2, max_size=40),
    mid_values=st.lists(level_or_float, min_size=39, max_size=39),
    breakpoints=st.lists(st.sampled_from(LEVELS[1:-1]), min_size=1, max_size=5),
    steps=st.lists(st.floats(0.01, 1.0), min_size=39, max_size=39),
    pass_samples=st.booleans(),
)
def test_find_switchings_matches_per_breakpoint_sign_scan(samples, mid_values, breakpoints, steps, pass_samples):
    """Same crossings and touches as the sign scan, on samples with exact
    hits, touches and runs on a level, unsorted and repeated breakpoints,
    and a piecewise linear q between them whose midpoint values the
    refinement meets."""
    n = len(samples)
    grid = np.concatenate([[0.0], np.cumsum(steps[: n - 1])])
    mids = 0.5 * (grid[:-1] + grid[1:])
    knots = np.empty(2 * n - 1)
    knots[0::2], knots[1::2] = grid, mids
    values = np.empty(2 * n - 1)
    values[0::2], values[1::2] = samples, mid_values[: n - 1]

    def q(t):
        return np.interp(t, knots, values)

    handed = np.array(samples) if pass_samples else None
    got = find_switchings(q, breakpoints, grid, samples=handed)
    expected = _find_switchings_reference(q, breakpoints, grid, samples=handed)
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


@pytest.mark.parametrize("signed_ends", [False, True], ids=["all-hits", "signed-ends"])
def test_find_switchings_on_a_breakpoint_everywhere(signed_ends):
    """All 32,001 samples of a dense grid on the breakpoint 0, as at the
    zero datum; with signed samples at the ends and in between, every hit
    is a crossing or a touch by its nearest signed neighbours."""
    grid = np.linspace(0.0, 4.0, 32_001)
    samples = np.zeros(grid.size)
    if signed_ends:
        samples[[0, 10_000, 20_000, -1]] = [-1.0, 0.5, 0.3, -0.2]

    def q(t):
        return np.interp(t, grid, samples)

    levels = [-0.5, 0.0, 0.5]
    got = find_switchings(q, levels, grid, samples=samples)
    expected = _find_switchings_reference(q, levels, grid, samples=samples)
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])
    if signed_ends:
        # level 0: hits 1..9,999 and 20,001..31,999 cross, 10,001..19,999
        # touch; level 0.5 is touched at 10,000; level -0.5 is crossed once
        assert got[0].size == 9_999 + 11_999 + 1 and got[1].size == 9_999 + 1
    else:
        assert got[0].size == 0 and got[1].size == 0


def _integral_and_grad_reference(prob, p_T):
    """The exact integral term and its gradient from the reference crossing
    scan on the whole uniform grid of ``bracket_multiplier`` sub-cells per
    quadrature cell, sampled by the propagator, and one exp_action_integral
    per switching interval; also the crossings per channel."""
    A, B, T = prob.sys.A, prob.sys.B, prob.sys.T
    tb = np.linspace(0.0, T, (prob.grid.n - 1) * prob.settings.bracket_multiplier + 1)
    qb = prob.propagator(tb, p_T)
    base = np.zeros_like(p_T)
    integral = 0.0
    found = []
    for ch, pen in enumerate(prob.penalizations):
        qfun = lambda t, ch=ch: prob.propagator(t, p_T)[:, ch]
        crossings, _ = _find_switchings_reference(qfun, pen.breakpoints, tb, samples=qb[:, ch])
        found.append(crossings)
        ts = np.concatenate([[0.0], crossings, [T]])
        ks = pen.segment_index(qfun(0.5 * (ts[:-1] + ts[1:])))
        psi_hi = exp_action_integral(A, B, T)[:, ch]
        for a, b, k in zip(ts[:-1], ts[1:], ks):
            psi_lo = exp_action_integral(A, B, T - b)[:, ch]
            F = psi_hi - psi_lo
            base += pen.slopes[k] * F
            integral += pen.slopes[k] * float(F @ p_T) + pen.intercepts[k] * (b - a)
            psi_hi = psi_lo
    return integral, base, found


@pytest.mark.parametrize(
    "A, B, p_T",
    [
        (A_OSC, B_OSC, np.array([0.9, -1.3])),
        (
            np.array([[-0.1, 2.0, 0.0], [-2.0, -0.1, 0.5], [0.0, -0.5, -0.2]]),
            np.array([[1.0, 0.0], [0.0, 0.3], [0.5, 1.0]]),
            np.array([1.1, -0.4, 0.8]),
        ),
    ],
    ids=["k1", "k2"],
)
def test_exact_evaluation_matches_per_interval_reference(A, B, p_T):
    """The certified search on the quadrature grid finds the crossings that
    the reference scan finds on the whole sub-cell grid.  Both refine by the
    same rule from other brackets and samples, so the times agree to the
    1e-12 bracket width, not bit for bit, and so do the integral and its
    gradient, which move by about |q'| times that per crossing."""
    sys = LtiSystem(A=A, B=B, x0=np.ones(A.shape[0]), T=4.0)
    pens = [six_point_ladder() for _ in range(B.shape[1])]
    prob = DualProblem(sys, pens, grid=QuadratureGrid.trapezoid(4.0, 500))
    pieces = ExactEvaluator(prob).pieces(p_T)
    integral, base = ExactEvaluator(prob).integral_and_grad(p_T, pieces)
    ref_integral, ref_base, ref_crossings = _integral_and_grad_reference(prob, p_T)
    assert sum(ks.size for _, ks, _ in pieces) > 2 * B.shape[1]
    for (crossings, _, _), expected in zip(pieces, ref_crossings):
        assert crossings.size == expected.size
        assert np.max(np.abs(crossings - expected)) <= 2e-12
    assert integral == pytest.approx(ref_integral, rel=1e-11, abs=1e-11)
    assert np.allclose(base, ref_base, rtol=1e-11, atol=1e-11)


def _ladder(points):
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.asarray(points, dtype=float)))


def _scan_crossings(q, levels, T, samples=1_000_000):
    """The crossings of ``levels`` that a sign scan of ``q`` on ``samples``
    uniform points finds, each solved to rounding by brentq."""
    t = np.linspace(0.0, T, samples)
    qs = np.concatenate([q(chunk) for chunk in np.array_split(t, 10)])
    found = []
    for lv in levels:
        f = qs - lv
        for i in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
            found.append(brentq(lambda s: float(q(np.array([s]))[0]) - lv, t[i], t[i + 1], xtol=1e-14))
    return np.sort(np.array(found))


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    T=st.floats(0.5, 4.0),
    points=st.lists(st.integers(-19, 19), min_size=2, max_size=8, unique=True),
)
def test_certified_search_finds_what_a_fine_scan_finds(N, seed, T, points):
    """Every crossing that a 10^6-point sign scan of the same exponential sum
    finds, and at which |q'| exceeds M h_b (M bounds |q''|, h_b of
    ``bracket_grid``) and 1e-5, is found within 1e-9.  No other crossing of
    its level lies within h_b of such a one, so the scan resolves it, and
    the rounding of q moves it by far less than 1e-9.  Flatter crossings
    belong to near-tangent pairs, which the scan itself can miss."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2.0, 2.0, (N, N))
    b = rng.uniform(-1.0, 1.0, (N, 1))
    sys = LtiSystem(A=A, B=b, x0=np.zeros(N), T=T)
    prob = DualProblem(sys, [_ladder([-1.0] + sorted(0.05 * np.array(points)) + [1.0])], grid=QuadratureGrid.trapezoid(T, 100))
    p = rng.uniform(-2.0, 2.0, N)
    p /= np.max(np.abs(prob.adjoint_observations(p)))  # B^T p spans about [-1, 1]
    q = lambda t: prob.propagator(t, p)[:, 0]
    [(crossings, _, _)] = ExactEvaluator(prob).pieces(p)
    expected = _scan_crossings(q, prob.penalizations[0].breakpoints, T)
    h_b = prob.bracket_grid()
    M = float(np.linalg.norm(p)) * prob.row_bounds[1, 0]
    slope = np.abs(prob.propagator.rows(expected)[:, 0, :] @ (A.T @ p)) if expected.size else np.empty(0)
    firm = expected[slope > max(M * h_b, 1e-5)]
    assert crossings.size >= firm.size
    for t_c in firm:
        assert np.min(np.abs(crossings - t_c)) <= 1e-9


def _check_pair_in_one_cell(peak, half):
    T, n = 4.0, 51
    h = T / (n - 1)
    t_star = 20 * h + peak * h
    level = np.cos(half * h)
    sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=T)
    prob = DualProblem(sys, [_ladder([-2.0, 0.5, level, 2.0])], grid=QuadratureGrid.trapezoid(T, n))
    phi = T - t_star
    p = np.array([np.sin(phi), np.cos(phi)])
    nodes_q = prob.adjoint_observations(p)[:, 0]
    assert nodes_q[20] < level and nodes_q[21] < level
    [(crossings, _, _)] = ExactEvaluator(prob).pieces(p)
    pair = crossings[np.abs(crossings - t_star) < h]
    assert pair.size == 2
    assert np.max(np.abs(pair - (t_star + np.array([-half, half]) * h))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(peak=st.floats(0.1, 0.9), half=st.floats(0.05, 0.45))
# the right crossing on t_20 + h / 4, a dyadic fraction of the cell
@example(peak=0.2, half=0.05)
def test_a_pair_of_crossings_inside_one_quadrature_cell_is_found(peak, half):
    """q(t) = cos(t - t*) on the oscillator peaks inside a quadrature cell,
    at t* = t_20 + peak h, and crosses the level cos(half h) at t* -+ half h,
    both inside the cell, whose ends lie below the level: the nodes alone
    show no crossing, the chord bound keeps the cell, and its Bernstein
    coefficients change sign twice, so the cell is cut until each piece
    brackets one crossing, wherever in the cell the two lie."""
    assume(half < min(peak, 1.0 - peak) - 1e-3)
    _check_pair_in_one_cell(peak, half)


def _bernstein(power):
    """Bernstein coefficients on [0, 1] of the polynomial with the power
    coefficients ``power``."""
    m = len(power) - 1
    return np.array([sum(math.comb(j, k) / math.comb(m, k) * power[k] for k in range(j + 1)) for j in range(m + 1)])


def test_cuts_part_a_close_pair_and_follow_a_touch_only_to_the_allowance():
    """(u - 0.3)(u - 0.35) on one cell is cut until one root lies in each
    piece, whose end values, the cuts' de Casteljau values, bracket it.
    (u - 0.5)^2 touches 0: the cuts follow the touch only until the
    coefficients dip below the level by no more than the allowance, and a
    polynomial within the allowance of the level is not cut at all."""
    one = np.array([0.0])
    times, values = _cuts(one, 1.0, _bernstein([0.105, -0.65, 1.0])[None], one, 1e-15)
    t, v = np.concatenate([one, *times, [1.0]]), np.concatenate([[0.105], *values, [0.455]])
    order = np.argsort(t)
    t, v = t[order], v[order]
    assert np.allclose(v, (t - 0.3) * (t - 0.35), rtol=0.0, atol=1e-15)
    flips = t[1:][v[:-1] * v[1:] < 0]
    assert flips.size == 2 and 0.3 < flips[0] < 0.35 < flips[1]
    times, _ = _cuts(one, 1.0, _bernstein([0.25, -1.0, 1.0])[None], one, 1e-15)
    touch = np.sort(np.concatenate(times))
    assert 0 < touch.size < 100 and np.min(np.diff(touch)) > FLOOR and np.max(np.abs(touch - 0.5)) < 0.5
    assert _cuts(one, 1.0, np.full((1, 5), 1e-16) * [1, -1, 1, -1, 1], one, 1e-15) == ([], [])


MINIMIZERS = json.loads((Path(__file__).parent / "data" / "synthesis_minimizers.json").read_text())


def _minimizer_problem(datum):
    sys = LtiSystem(A=datum["A"], B=datum["B"], x0=datum["x0"], T=datum["T"])
    return DualProblem(
        sys,
        [_ladder(datum["partition"]) for _ in range(sys.channels)],
        kind=datum["kind"],
        beta=datum["beta"],
        grid=QuadratureGrid.trapezoid(datum["T"], datum["nodes"]),
        settings=OptimizerSettings(bracket_multiplier=datum["bracket_multiplier"]),
    )


@pytest.mark.parametrize("datum", MINIMIZERS, ids=[d["op_id"][:6] for d in MINIMIZERS])
def test_crossings_at_the_synthesis_minimizers(datum):
    """At the minimizer of each penalized synthesis plant the search finds
    as many crossings as q - level has roots, each within its sensitivity
    of the root: ``BISECTION_TOL`` plus the rounding allowance ``ROUNDING``
    eps |p| row_bounds[0, c] over |q'(t_c)|.  The roots are stored as solved
    in 40-digit arithmetic (``data/record_roots.py``)."""
    prob = _minimizer_problem(datum)
    p = np.array(datum["p_T"])
    allowance = ROUNDING * np.finfo(float).eps * np.linalg.norm(p) * prob.row_bounds[0]
    for ch, ((crossings, _, _), roots) in enumerate(zip(ExactEvaluator(prob).pieces(p), datum["crossings"])):
        roots = np.array(roots, dtype=float)
        slope = np.abs(prob.propagator.rows(roots)[:, ch] @ (prob.sys.A.T @ p))
        assert crossings.size == roots.size
        assert np.all(np.abs(crossings - roots) <= BISECTION_TOL + allowance[ch] / slope)


@pytest.mark.parametrize("datum", MINIMIZERS, ids=[d["op_id"][:6] for d in MINIMIZERS])
def test_exact_gradient_is_the_terminal_state_of_the_staircase(datum):
    """The exact gradient at p is e^{TA} x0 plus the integral of e^{(T-t)A}
    B u(t) for the staircase u read at p, so it equals the terminal state
    that the extracted staircase steers x0 to, simulated on the nodes
    joined with the switch times."""
    prob = _minimizer_problem(datum)
    p = np.array(datum["p_T"])
    ctrl = extract_control(p, prob)
    switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
    x_T = simulate_forward(prob.sys, ctrl, np.union1d(prob.grid.nodes, switches)).terminal
    assert np.linalg.norm(ExactEvaluator(prob).value_and_grad(p)[1] - x_T) <= 1e-12


class TestExtractControl:
    def test_single_segment_constant_level(self):
        # constant adjoint observation inside one segment: no switches
        sys = LtiSystem(A=np.zeros((1, 1)), B=[[1.0]], x0=[0.0], T=1.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        prob = DualProblem(sys, [pen], grid=QuadratureGrid.trapezoid(1.0, 500))
        ctrl = extract_control(np.array([0.3]), prob)
        ch = ctrl.channels[0]
        assert ch.switch_times.size == 0
        assert ch.levels.tolist() == [0.5]

    def test_oscillator_levels_and_staircase(self):
        prob, rep = solved_oscillator()
        ctrl = extract_control(rep.p_T_star, prob)
        ch = ctrl.channels[0]
        ladder = ch.level_set
        assert np.all(np.isin(ch.levels, ladder))
        ok, violation = verify_staircase(ctrl, ladder)
        assert ok and violation is None
        # levels come from the slope ladder of the penalization, bitwise
        assert np.all(np.isin(ch.levels, 1.0 * slopes(prob.penalizations[0])))

    def test_segment_adjacency_across_switchings(self):
        prob, rep = solved_oscillator()
        ctrl = extract_control(rep.p_T_star, prob)
        ch = ctrl.channels[0]
        pen = prob.penalizations[0]
        ts = np.concatenate([[0.0], ch.switch_times, [prob.sys.T]])
        mids = 0.5 * (ts[:-1] + ts[1:])
        segs = pen.segment_index(prob.propagator(mids, rep.p_T_star)[:, 0])
        assert np.all(np.abs(np.diff(segs)) == 1)

    def test_switch_count_matches_crossings(self):
        prob, rep = solved_oscillator()
        ctrl = extract_control(rep.p_T_star, prob)
        pen = prob.penalizations[0]
        # a dense scan, 8 samples per quadrature cell
        tb = np.linspace(0.0, prob.sys.T, (prob.grid.n - 1) * 8 + 1)
        crossings, _ = find_switchings(
            lambda t: prob.propagator(t, rep.p_T_star)[:, 0], pen.breakpoints, tb
        )
        assert ctrl.channels[0].switch_times.size == crossings.size

    def test_scaled_kind_levels_are_beta_times_slopes(self):
        prob, rep = solved_oscillator(kind="scaled", beta=3.0)
        ctrl = extract_control(rep.p_T_star, prob)
        ladder = 3.0 * slopes(prob.penalizations[0])
        assert ctrl.scale == 3.0
        assert np.all(np.isin(ctrl.channels[0].levels, ladder))

    def test_squared_kind_scale_matches_quadrature_oracle(self):
        prob, rep = solved_oscillator(kind="squared", T=0.5)
        ctrl = extract_control(rep.p_T_star, prob)
        # oracle: quadrature of the penalized observation along the optimum
        q = prob.adjoint_observations(rep.p_T_star)[:, 0]
        oracle = float(prob.grid.weights @ prob.penalizations[0].value(q))
        assert ctrl.scale == pytest.approx(oracle, rel=1e-6)
        assert np.all(np.isin(ctrl.channels[0].levels, ctrl.scale * slopes(prob.penalizations[0])))

    def test_squared_kind_levels_are_exact_integral_times_slopes(self):
        prob, rep = solved_oscillator(kind="squared", T=0.5)
        ctrl = extract_control(rep.p_T_star, prob)
        integral, _ = ExactEvaluator(prob).integral_and_grad(rep.p_T_star)
        assert ctrl.scale == integral
        assert np.array_equal(ctrl.channels[0].level_set, integral * slopes(prob.penalizations[0]))
        assert np.all(np.isin(ctrl.channels[0].levels, ctrl.channels[0].level_set))

    def test_zero_state_zero_control(self):
        # q = 0 lies inside the segment whose chord slope is the ladder's
        # zero level (2.3e-16 in floating point), so it is held throughout
        prob, rep = solved_oscillator(x0=np.zeros(2))
        ctrl = extract_control(rep.p_T_star, prob)
        pen = prob.penalizations[0]
        assert ctrl.channels[0].switch_times.size == 0
        assert ctrl.channels[0].levels.tolist() == [pen.slopes[pen.segment_index(0.0)]]

    def test_degenerate_zero_datum_with_nonzero_state(self):
        # the origin minimizes here: x0 is reachable below the inner slopes
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        prob = DualProblem(sys, [pen])
        ctrl = extract_control(np.zeros(2), prob)
        ch = ctrl.channels[0]
        assert ch.switch_times.size == sys.dim
        assert np.all(np.isin(ch.levels, ch.level_set))
        ok, _ = verify_staircase(ctrl, ch.level_set)
        assert ok
        # exact zero-order hold: one step per constant piece
        traj = simulate_forward(sys, ctrl, np.concatenate([[0.0], ch.switch_times, [sys.T]]))
        assert traj.terminal_norm <= 1e-9

    @pytest.mark.parametrize("factor", [2.0, 4.0])
    def test_zero_datum_that_is_not_a_minimizer_raises(self, factor):
        # a larger state leaves the origin's subdifferential box: steering
        # needs levels beyond the inner slopes (factor 2) or beyond the whole
        # ladder (factor 4), so no staircase between the inner slopes steers
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=factor * X0, T=4.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        prob = DualProblem(sys, [pen])
        lo, hi = subgradient_box(prob, np.zeros(2))
        assert np.linalg.norm(np.clip(0.0, lo, hi)) > GTOL
        with pytest.raises(DegenerateAdjointError, match="not a minimizer: its least subgradient norm") as info:
            extract_control(np.zeros(2), prob)
        closest = re.search(r"closest terminal norm ([^\s)]+)", str(info.value))
        assert float(closest.group(1)) > POLISH_TOL

    def test_a_failed_selection_at_a_minimizer_is_no_verdict_on_it(self, monkeypatch):
        # with no Gauss-Newton step allowed nothing steers, but the origin
        # above is a minimizer, which the minimum-norm subgradient certifies
        monkeypatch.setattr(extract, "POLISH_MAX_ITER", 0)
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        with pytest.raises(DegenerateAdjointError, match="datum is certified, but no staircase with 2 to 4 switches"):
            extract_control(np.zeros(2), DualProblem(sys, [pen]))

    def test_degenerate_zero_datum_beyond_n_switches(self):
        # T = 3 pi: x0 is 97 % of the way to the boundary point, in direction
        # (cos 0.7, sin 0.7), of the set reachable with |u| <= 0.5, whose
        # control switches at the 3 zeros of sin(T - t + 0.7) inside (0, T).
        # No staircase with N = 2 switches reaches that far; the origin is
        # still the minimizer, and 3 switches steer x0
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=[2.225690767543849, 1.8746734668390892], T=3 * np.pi)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        prob = DualProblem(sys, [pen])
        rep = minimize(prob)
        assert rep.converged and not rep.p_T_star.any()
        for levels in ([-0.5, 0.5, -0.5], [0.5, -0.5, 0.5]):
            _, _, norm, _ = extract._steer(prob, [sys.T * np.array([1.0, 2.0]) / 3.0], [np.array(levels)], [0])
            assert norm > POLISH_TOL
        ctrl = extract_control(rep.p_T_star, prob)
        ch = ctrl.channels[0]
        assert ch.switch_times.size == 3 and set(ch.levels) == {-0.5, 0.5}
        traj = simulate_forward(sys, ctrl, np.concatenate([[0.0], ch.switch_times, [sys.T]]))
        assert traj.terminal_norm <= 1e-9

    def test_zero_datum_of_the_squared_kind_raises(self):
        # the squared kind's level scale is the integral term, 0 at the origin
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        with pytest.raises(DegenerateAdjointError, match="scale 0 at the datum is not positive"):
            extract_control(np.zeros(2), DualProblem(sys, [pen], kind="squared"))

    def test_extracted_control_steers_to_zero(self):
        prob, rep = solved_oscillator()
        ctrl = extract_control(rep.p_T_star, prob)
        grid = np.union1d(prob.grid.nodes, ctrl.channels[0].switch_times)
        traj = simulate_forward(prob.sys, ctrl, grid)
        assert traj.terminal_norm <= 1e-6

    def test_record_round_trip(self):
        prob, rep = solved_oscillator()
        ctrl = extract_control(rep.p_T_star, prob)
        back = MultilevelControl.from_record(ctrl.to_record())
        tt = np.linspace(0, prob.sys.T, 257)
        assert np.array_equal(back.channels[0](tt), ctrl.channels[0](tt))


class TestVerifyStaircase:
    LADDER = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

    def _ctrl(self, levels, times):
        ch = ChannelControl(
            switch_times=np.asarray(times, dtype=float),
            levels=np.asarray(levels, dtype=float),
            level_set=self.LADDER,
        )
        return MultilevelControl(channels=(ch,), scale=1.0, horizon=1.0)

    def test_skipping_jump_rejected(self):
        ok, violation = verify_staircase(self._ctrl([-0.5, 1.0], [0.5]), self.LADDER)
        assert not ok
        assert violation["from_level"] == -0.5 and violation["to_level"] == 1.0

    def test_neighbour_jumps_accepted(self):
        ok, violation = verify_staircase(
            self._ctrl([0.0, 0.5, 1.0, 0.5], [0.2, 0.5, 0.8]), self.LADDER
        )
        assert ok and violation is None

    def test_single_level_vacuous(self):
        ok, _ = verify_staircase(self._ctrl([0.5], []), self.LADDER)
        assert ok

    def test_foreign_level_raises(self):
        with pytest.raises(ValueError, match="ladder"):
            verify_staircase(self._ctrl([0.3], []), self.LADDER)


class TestQuadraticControl:
    def test_steers_to_zero(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
        prob = DualProblem(sys, [], kind="quadratic")
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        u2 = quadratic_control(rep.p_T_star, prob)
        traj = simulate_forward(sys, u2, np.linspace(0, 4, 4001))
        assert traj.terminal_norm <= 1e-4

    def test_rejects_penalized_kind(self):
        prob, rep = solved_oscillator()
        with pytest.raises(ValueError):
            quadratic_control(rep.p_T_star, prob)
