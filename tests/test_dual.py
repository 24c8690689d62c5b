import gc
import logging
import sys as _sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multilevel_control import (
    ConvexProfile,
    DegenerateAdjointError,
    DualProblem,
    FunctionalKind,
    LtiSystem,
    OptimizerSettings,
    Partition,
    QuadratureGrid,
    SolveStatus,
    barrier_constants,
    build_penalization,
    eval_functional,
    eval_subgradient,
    extract_control,
    interp_error_bound,
    kalman_rank,
    mat_exp,
    minimize,
    quadratic_control,
    quadratic_profile,
    simulate_forward,
    subgradient_box,
    verify_staircase,
)
from multilevel_control import dual, extract, lti, pwl
from multilevel_control.config import load_config
from multilevel_control.dual import ExactEvaluator, line_search, quadratic_minimizer
from multilevel_control.experiments import build_problem, run_scenario
from multilevel_control.lti import gramian

A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
B_OSC = np.array([[0.0], [1.0]])
X0 = np.array([-1.0, 0.5])


def five_point_ladder():
    return build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))


def six_point_ladder():
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))


def abs_ladder():
    # u^2 interpolated on {-1, 0, 1} is exactly |u|
    return build_penalization(quadratic_profile(), Partition(np.array([-1.0, 0.0, 1.0])))


def oscillator_problem(pen=None, kind="plain", T=4.0, x0=X0, **kw):
    sys = LtiSystem(A=A_OSC, B=B_OSC, x0=x0, T=T)
    return DualProblem(sys, [pen if pen is not None else five_point_ladder()], kind=kind, **kw)


class TestFunctionalKind:
    @pytest.mark.parametrize(
        "kind, value, slope",
        [
            ("plain", 2.0, 1.0),
            ("scaled", 6.0, 3.0),
            ("squared", 2.0, 2.0),
            ("quadratic", 2.0, 1.0),
            ("quadratic_squared", 2.0, 2.0),
        ],
    )
    def test_outer_map(self, kind, value, slope):
        assert FunctionalKind(kind).outer(2.0, beta=3.0) == (value, slope)
        assert FunctionalKind(kind).squared == kind.endswith("squared")

    def test_functional_is_outer_map_of_integral_term(self):
        rng = np.random.default_rng(3)
        for kind in FunctionalKind:
            prob = oscillator_problem(kind=kind, beta=3.0, grid=QuadratureGrid.trapezoid(4.0, 400))
            p = rng.standard_normal(2)
            value, _ = kind.outer(prob.integral_term(p), 3.0)
            assert eval_functional(prob, p) == value + float(prob.drift @ p)
            # the node observations a caller already holds give the same bits
            q = prob.adjoint_observations(p)
            assert eval_functional(prob, p, q) == eval_functional(prob, p)
            assert np.array_equal(eval_subgradient(prob, p, q), eval_subgradient(prob, p))


class TestQuadratureGrid:
    def test_weights_sum_to_horizon(self):
        g = QuadratureGrid.trapezoid(4.0, 4000)
        assert g.n == 4000
        assert g.weights.sum() == pytest.approx(4.0, abs=1e-10)
        assert np.all(g.weights > 0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            QuadratureGrid(np.array([0.0, 1.0]), np.array([0.4, 0.4]))

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid([0.0, np.nan, 1.0], [0.25, 0.5, 0.25])
        with pytest.raises(ValueError, match="finite"):
            QuadratureGrid([0.0, 0.5, 1.0], [0.25, np.nan, 0.25])
        for T in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                QuadratureGrid.trapezoid(T)


class TestEvalFunctional:
    def test_zero_datum_zero_value(self):
        prob = oscillator_problem()
        assert eval_functional(prob, np.zeros(2)) == 0.0

    def test_scalar_closed_form(self):
        # A = 1, B = 1, |u| ladder: value = |p|(e^T - 1) + x0 e^T p
        sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[0.3], T=1.0)
        prob = DualProblem(sys, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 4000))
        for p in (-1.2, -0.1, 0.7, 2.0):
            expected = abs(p) * (np.e - 1.0) + 0.3 * np.e * p
            assert eval_functional(prob, [p]) == pytest.approx(expected, abs=1e-6)

    def test_quadratic_kind_oscillator(self):
        # p_T = (1, 0), T = 2 pi, x0 = 0: integral of sin^2 over a period
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.zeros(2), T=2 * np.pi)
        prob = DualProblem(sys, [], kind="quadratic", grid=QuadratureGrid.trapezoid(2 * np.pi, 4000))
        assert eval_functional(prob, [1.0, 0.0]) == pytest.approx(np.pi, abs=1e-6)

    def test_dimension_mismatch(self):
        prob = oscillator_problem()
        with pytest.raises(ValueError):
            eval_functional(prob, np.zeros(3))

    def test_scaled_kind_is_exactly_beta_times_plain(self):
        plain = oscillator_problem()
        scaled = oscillator_problem(kind="scaled", beta=3.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.standard_normal(2)
            lin = float(plain.drift @ p)
            # identical integral evaluation path, amplified bitwise by beta
            assert scaled.integral_term(p) == plain.integral_term(p)
            expected = 3.0 * plain.integral_term(p) + lin
            assert eval_functional(scaled, p) == expected

    def test_multi_channel_sums_per_channel(self):
        sys = LtiSystem(A=A_OSC, B=np.array([[1.0, 0.0], [1.0, 1.0]]), x0=X0, T=2.0)
        pens = [five_point_ladder(), abs_ladder()]
        prob = DualProblem(sys, pens, grid=QuadratureGrid.trapezoid(2.0, 1500))
        p = np.array([0.2, -0.4])
        q = prob.adjoint_observations(p)
        w = prob.grid.weights
        expected = w @ pens[0].value(q[:, 0]) + w @ pens[1].value(q[:, 1]) + prob.drift @ p
        assert eval_functional(prob, p) == pytest.approx(expected, abs=1e-12)


class TestEvalSubgradient:
    def test_zero_at_origin_for_zero_state(self):
        prob = oscillator_problem(x0=np.zeros(2))
        assert np.allclose(eval_subgradient(prob, np.zeros(2)), 0.0, atol=0)

    def test_matches_finite_differences_at_smooth_points(self):
        rng = np.random.default_rng(14)
        for kind in ("plain", "squared", "quadratic", "quadratic_squared"):
            prob = oscillator_problem(kind=kind, grid=QuadratureGrid.trapezoid(4.0, 1200))
            checked = 0
            while checked < 25:
                p = rng.uniform(-1.5, 1.5, size=2)
                q = prob.adjoint_observations(p)
                pen = prob.penalizations[0] if prob.kind.penalized else None
                if pen is not None and np.min(np.abs(q[:, 0][:, None] - pen.breakpoints)) < 1e-4:
                    continue
                g = eval_subgradient(prob, p)
                fd = np.empty(2)
                h = 1e-6
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    fd[i] = (eval_functional(prob, p + e) - eval_functional(prob, p - e)) / (2 * h)
                assert np.allclose(g, fd, rtol=1e-5, atol=1e-8)
                checked += 1

    def test_scalar_closed_form_gradient(self):
        sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[0.3], T=1.0)
        prob = DualProblem(sys, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 4000))
        g = eval_subgradient(prob, [0.5])
        assert g[0] == pytest.approx((np.e - 1.0) + 0.3 * np.e, abs=1e-6)

    def test_subgradient_box_brackets_selection(self):
        prob = oscillator_problem()
        lo, hi = subgradient_box(prob, np.zeros(2))
        g = eval_subgradient(prob, np.zeros(2))
        assert np.all(lo - 1e-12 <= g) and np.all(g <= hi + 1e-12)


class TestConvexityProperties:
    def test_functional_convexity(self):
        rng = np.random.default_rng(23)
        for kind in ("plain", "squared", "quadratic"):
            prob = oscillator_problem(kind=kind, grid=QuadratureGrid.trapezoid(4.0, 800))
            for _ in range(40):
                p, q = rng.uniform(-2, 2, size=(2, 2))
                lam = rng.uniform(0.05, 0.95)
                mix = eval_functional(prob, lam * p + (1 - lam) * q)
                bound = lam * eval_functional(prob, p) + (1 - lam) * eval_functional(prob, q)
                assert mix <= bound + 1e-10

    def test_subgradient_inequality(self):
        prob = oscillator_problem(grid=QuadratureGrid.trapezoid(4.0, 800))
        rng = np.random.default_rng(31)
        for _ in range(60):
            p, q = rng.uniform(-2, 2, size=(2, 2))
            g = eval_subgradient(prob, p)
            lhs = eval_functional(prob, q)
            rhs = eval_functional(prob, p) + g @ (q - p)
            assert lhs >= rhs - 1e-8

    def test_penalization_sandwich(self):
        pen = five_point_ladder()
        prob = oscillator_problem(pen, grid=QuadratureGrid.trapezoid(4.0, 1500))
        a1, a2 = barrier_constants(pen, (-1.0, 1.0))
        rng = np.random.default_rng(44)
        w = prob.grid.weights
        for _ in range(30):
            p = rng.standard_normal(2)
            q = prob.adjoint_observations(p)[:, 0]
            amax = np.max(np.abs(q))
            if amax > 0:
                p = p * (0.999 / amax)
                q = prob.adjoint_observations(p)[:, 0]
            abs_int = w @ np.abs(q)
            pen_int = w @ pen.value(q)
            assert a1 * abs_int - 1e-10 <= pen_int <= a2 * abs_int + 1e-10

    def test_penalized_minus_quadratic_within_interp_bound(self):
        part = Partition(np.array([-1, -0.5, 0, 0.5, 1.0]))
        pen = build_penalization(quadratic_profile(), part)
        _, bound = interp_error_bound(quadratic_profile(), part)
        plain = oscillator_problem(pen)
        quad = oscillator_problem(kind="quadratic")
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = rng.standard_normal(2)
            q = plain.adjoint_observations(p)[:, 0]
            amax = np.max(np.abs(q))
            if amax > 0:
                p = p * (0.99 / amax)
            diff = abs(eval_functional(plain, p) - eval_functional(quad, p))
            assert diff <= bound * 4.0 + 1e-9


class TestMinimize:
    def test_zero_state_converges_at_origin(self):
        for kind in ("plain", "squared", "quadratic"):
            prob = oscillator_problem(x0=np.zeros(2), kind=kind)
            rep = minimize(prob)
            assert rep.status is SolveStatus.CONVERGED
            assert np.allclose(rep.p_T_star, 0.0, atol=0)

    def test_five_point_long_horizon_converges_at_origin(self):
        # the reachable set under the inner slopes covers e^{TA} x0, so the
        # exact minimizer is the origin (kinked minimum certificate)
        rep = minimize(oscillator_problem())
        assert rep.status is SolveStatus.CONVERGED
        assert np.allclose(rep.p_T_star, 0.0, atol=0)
        assert rep.value == 0.0

    def test_six_point_long_horizon_interior_minimizer(self):
        prob = oscillator_problem(six_point_ladder())
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        assert np.linalg.norm(rep.p_T_star) > 1e-3
        assert rep.grad_norm <= prob.settings.gtol
        assert rep.value < 0.0

    def test_expansive_scalar_large_state_diverges(self):
        sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[1.5], T=1.0)
        prob = DualProblem(sys, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 2000))
        rep = minimize(prob)
        assert rep.status is SolveStatus.DIVERGED
        assert rep.p_T_star is None

    def test_quadratic_matches_normal_equations(self):
        # over one period the oscillator's Gram matrix is pi I and the drift
        # is x0, so y = x0 / pi and c = |x0|^2 / pi
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=2 * np.pi)
        y = X0 / np.pi
        c = float(X0 @ y)
        cases = {"quadratic": -0.5 * y, "quadratic_squared": -((2.0 * c) ** (-1.0 / 3.0)) * y}
        for kind, expected in cases.items():
            prob = DualProblem(sys, [], kind=kind)
            rep = minimize(prob)
            assert rep.status is SolveStatus.CONVERGED and rep.iterations == 0
            assert np.allclose(rep.p_T_star, expected, rtol=1e-12, atol=0)
            assert np.array_equal(rep.p_T_star, quadratic_minimizer(prob))

    def test_iteration_cap_reports_last_iterate(self):
        prob = oscillator_problem(six_point_ladder(), settings=OptimizerSettings(max_iterations=5))
        rep = minimize(prob)
        assert rep.status is SolveStatus.ITERATION_CAP
        assert rep.iterations == 5
        assert np.all(np.isfinite(rep.p_T_star)) and np.linalg.norm(rep.p_T_star) > 0.0
        assert "descent stalled" in rep.message

    def test_trace_recorded(self):
        rep = minimize(oscillator_problem(six_point_ladder()))
        assert rep.trace.shape[1] == 3
        assert rep.trace.shape[0] >= rep.iterations // 2


    def test_uncontrollable_system_is_logged(self, caplog):
        sys = LtiSystem(A=np.zeros((2, 2)), B=[[1.0], [0.0]], x0=np.zeros(2), T=1.0)
        prob = DualProblem(sys, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 200))
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="multilevel_control"):
            warnings.simplefilter("error")
            minimize(prob)
        assert [r.name for r in caplog.records] == ["multilevel_control"]
        assert "not controllable" in caplog.records[0].getMessage()


class TestQuadraticClosedForm:
    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_squared"])
    def test_uncontrollable_plant(self, kind):
        # A = 0, B = e1: the Gram matrix is diag(T, 0)
        def solve(x0):
            sys = LtiSystem(A=np.zeros((2, 2)), B=[[1.0], [0.0]], x0=x0, T=1.0)
            return minimize(DualProblem(sys, [], kind=kind, grid=QuadratureGrid.trapezoid(1.0, 200)))

        unreachable = solve((0.0, 1.0))
        assert unreachable.status is SolveStatus.DIVERGED and unreachable.iterations == 0
        assert unreachable.p_T_star is None
        reachable = solve((1.0, 0.0))
        assert reachable.status is SolveStatus.CONVERGED and reachable.iterations == 0
        # the minimum-norm minimizer has no component along the null direction
        assert reachable.p_T_star[1] == 0.0 and reachable.p_T_star[0] < 0.0

    def test_ill_conditioned_random_plant_steers(self):
        # cond(W) = 2.6e8: the closed form on the exact Gramian still steers,
        # checked against W solved from the Lyapunov equation
        # A W + W A^T = e^{TA} B B^T e^{TA^T} - B B^T
        rng = np.random.default_rng(0)
        A = rng.uniform(-1.0, 1.0, (6, 6))
        B = rng.uniform(-1.0, 1.0, (6, 1))
        x0 = rng.uniform(-1.0, 1.0, 6)
        E = mat_exp(A, 2.0)
        W = sla.solve_continuous_lyapunov(A, E @ B @ B.T @ E.T - B @ B.T)
        sys = LtiSystem(A=A, B=B, x0=x0, T=2.0)
        prob = DualProblem(sys, [], kind="quadratic", grid=QuadratureGrid.trapezoid(2.0, 2000))
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        terminal = E @ x0 + 2.0 * W @ rep.p_T_star
        assert np.linalg.norm(terminal) <= 1e-6 * (1.0 + np.linalg.norm(prob.drift))

    def test_minimizer_beyond_the_float_range_raises(self):
        # B = 3.6e-158 is controllable, but W ~ 1e-315 puts |p| near 1e315
        sys = LtiSystem(A=np.eye(2, k=-1), B=[[3.55192400437013e-158], [0.0]], x0=(0.0, 1.0), T=1.0)
        prob = DualProblem(sys, [], kind="quadratic", grid=QuadratureGrid.trapezoid(1.0, 200))
        with pytest.raises(FloatingPointError, match="overflows"):
            minimize(prob)

    def test_ill_conditioned_controllable_plant_is_not_diverged(self):
        # a six-state integrator chain over T = 0.5: the Gram matrix has
        # condition number ~1e13, so rounding keeps the gradient above gtol
        sys = LtiSystem(A=np.eye(6, k=1), B=np.eye(6)[:, 5:], x0=np.ones(6), T=0.5)
        rep = minimize(DualProblem(sys, [], kind="quadratic", grid=QuadratureGrid.trapezoid(0.5, 400)))
        assert rep.status is SolveStatus.ITERATION_CAP and rep.iterations == 0
        assert rep.grad_norm > 1e-6 and rep.p_T_star is not None


@st.composite
def controllable_plants(draw):
    """Controllable plants with 2-6 states and 1-2 channels, a quadratic
    kind, T in [0.5, 3], entries in [-1, 1] and a Gramian conditioned below
    1e4 (the simulation's midpoint-rule error grows with |p|, so with it)
    whose eigenvalues exceed 1e-100 (|p| ~ |drift| / lambda_min must stay
    in the float range)."""
    N = draw(st.integers(2, 6))
    K = draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    A = np.array(draw(st.lists(entries, min_size=N * N, max_size=N * N))).reshape(N, N)
    B = np.array(draw(st.lists(entries, min_size=N * K, max_size=N * K))).reshape(N, K)
    assume(kalman_rank(A, B) == N)
    x0 = np.array(draw(st.lists(entries, min_size=N, max_size=N)))
    T = draw(st.floats(0.5, 3.0))
    kind = draw(st.sampled_from(["quadratic", "quadratic_squared"]))
    prob = DualProblem(LtiSystem(A=A, B=B, x0=x0, T=T), [], kind=kind, grid=QuadratureGrid.trapezoid(T, 2000))
    W = gramian(A, B, T)
    assume(np.linalg.cond(W) < 1e4 and np.linalg.eigvalsh(W)[0] > 1e-100)
    return prob


@settings(max_examples=40, deadline=None)
@given(prob=controllable_plants())
def test_quadratic_kinds_solve_in_closed_form(prob):
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED and rep.iterations == 0
    assert np.linalg.norm(eval_subgradient(prob, rep.p_T_star)) <= prob.settings.gtol
    # u = 2 phi'(I) B^T p, with I = p^T W p, steers x0 to e^{TA} x0 + 2 phi'(I) W p
    sys, p = prob.sys, rep.p_T_star
    W = gramian(sys.A, sys.B, sys.T)
    factor = 2.0 * (float(p @ W @ p) if prob.kind.squared else 1.0)
    terminal = mat_exp(sys.A, sys.T) @ sys.x0 + factor * W @ p
    assert np.linalg.norm(terminal) <= 1e-6 * (1.0 + np.linalg.norm(prob.drift))
    traj = simulate_forward(prob.sys, quadratic_control(rep.p_T_star, prob), prob.grid.nodes)
    assert traj.terminal_norm <= 1e-3 * (1.0 + np.linalg.norm(prob.drift))


@pytest.mark.parametrize("kind", ["quadratic", "quadratic_squared"])
def test_quadratic_control_is_the_scaled_adjoint(kind):
    prob = oscillator_problem(kind=kind)
    p = minimize(prob).p_T_star
    factor = 2.0 * prob.outer_slope(lambda: prob.integral_term(p))
    u = quadratic_control(p, prob)
    t = np.linspace(0.0, prob.sys.T, 37)
    assert np.array_equal(u(t), factor * prob.propagator(t, p))
    assert np.array_equal(u(1.3), (factor * prob.propagator(1.3, p))[0])


FOUR_LEVELS = [-1.0, -0.5, 0.0, 0.5, 1.0]


def constant_observation_problem(partition, x0):
    """A = 0 and B = [[1, 1], [1, -1]]: B^T p is constant in time, and x0 is
    steerable by levels in [-s, s] exactly when |x0|_1 <= 2 s (T = 1).  The
    coordinatewise hull of the subdifferential at a kink is a box, while the
    subdifferential itself is the rotated square |g|_1 <= 2 s."""
    sys = LtiSystem(A=np.zeros((2, 2)), B=[[1.0, 1.0], [1.0, -1.0]], x0=x0, T=1.0)
    pens = [build_penalization(quadratic_profile(), Partition(np.array(partition))) for _ in range(2)]
    return DualProblem(sys, pens, grid=QuadratureGrid.trapezoid(1.0, 400))


class TestKinkCertificate:
    @pytest.mark.parametrize(
        "partition, x0",
        [
            # levels +-1 reach |x0|_1 <= 2 only: infeasible
            ([-1.0, 0.0, 1.0], (1.5, 0.6)),
            # the inner levels +-0.5 reach |x0|_1 <= 1 only: 0 is no minimizer
            (FOUR_LEVELS, (0.75, 0.3)),
            # the descent stalls near a kinked point that is no minimizer
            (FOUR_LEVELS, (1.2, 0.5)),
        ],
        ids=["infeasible", "origin-not-minimizer", "active-kinks-not-minimizer"],
    )
    def test_non_minimizers_are_not_certified(self, partition, x0):
        rep = minimize(constant_observation_problem(partition, x0))
        assert rep.status is not SolveStatus.CONVERGED

    def test_origin_certified_before_the_descent(self):
        prob = constant_observation_problem(FOUR_LEVELS, (0.6, 0.3))
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations == 0 and "stationary at the origin" in rep.message
        assert np.array_equal(rep.p_T_star, np.zeros(2))
        ctrl = extract_control(rep.p_T_star, prob)
        for ch in ctrl.channels:
            assert verify_staircase(ctrl, ch.level_set)[0]
        times = np.unique(np.concatenate([[0.0, 1.0]] + [ch.switch_times for ch in ctrl.channels]))
        assert simulate_forward(prob.sys, ctrl, times).terminal_norm <= 1e-9


@st.composite
def kinked_plants(draw):
    """Controllable plants with 2-3 states and 1-2 channels, each channel on
    the four-level ladder (kinked at 0), T in [0.5, 4] and |x0| <= 2."""
    N = draw(st.integers(2, 3))
    K = draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    A = np.array(draw(st.lists(entries, min_size=N * N, max_size=N * N))).reshape(N, N)
    B = np.array(draw(st.lists(entries, min_size=N * K, max_size=N * K))).reshape(N, K)
    assume(kalman_rank(A, B) == N)
    x0 = np.array(draw(st.lists(entries, min_size=N, max_size=N)))
    T = draw(st.floats(0.5, 4.0))
    sys = LtiSystem(A=A, B=B, x0=x0, T=T)
    pens = [five_point_ladder() for _ in range(K)]
    return DualProblem(
        sys, pens, grid=QuadratureGrid.trapezoid(T, 400), settings=OptimizerSettings(max_iterations=3000)
    )


@settings(max_examples=12, deadline=None)
@given(prob=kinked_plants())
def test_converged_data_extract_without_degenerate_error(prob):
    rep = minimize(prob)
    if rep.status is SolveStatus.CONVERGED:
        try:
            extract_control(rep.p_T_star, prob)
        except DegenerateAdjointError as exc:
            pytest.fail(f"{rep.message}: {exc}")


class TestOptimizerSettings:
    def test_max_iterations_at_least_one(self):
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerSettings(max_iterations=0)

    def test_gtol_positive(self):
        with pytest.raises(ValueError, match="gtol"):
            OptimizerSettings(gtol=0.0)

    def test_bracket_multiplier_at_least_one(self):
        with pytest.raises(ValueError, match="bracket_multiplier"):
            OptimizerSettings(bracket_multiplier=0)


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name) records the positional arguments of every call of
    ``module.name``, through every library module that holds the name."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(_sys.modules.items()):
            if mod_name.split(".")[0] == "multilevel_control" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install


class TestConstantsOnFirstRead:
    CONSTANTS = ("adjoint_rows", "gramian", "exp_action_integral", "AdjointPropagator")

    @pytest.mark.parametrize("kind", [k.value for k in FunctionalKind])
    def test_construction_forms_none(self, spy, kind):
        calls = {name: spy(lti, name) for name in self.CONSTANTS}
        oscillator_problem(kind=kind, beta=2.0)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(self.CONSTANTS, 0)

    def test_construction_still_rejects_a_non_uniform_grid(self):
        nodes = np.array([0.0, 1.0, 4.0])
        with pytest.raises(ValueError, match="uniform grid"):
            oscillator_problem(grid=QuadratureGrid(nodes, np.array([0.5, 2.0, 1.5])))

    @pytest.mark.parametrize("kind", ["quadratic", "quadratic_squared"])
    def test_quadratic_minimize_forms_no_rows(self, spy, kind):
        rows = spy(lti, "adjoint_rows")
        assert minimize(oscillator_problem(kind=kind)).converged
        assert rows == []

    @pytest.mark.parametrize("kind", ["plain", "squared"])
    def test_penalized_minimize_forms_no_gramian(self, spy, kind):
        grams = spy(lti, "gramian")
        assert minimize(oscillator_problem(six_point_ladder(), kind=kind)).converged
        assert grams == []

    def test_scenario_forms_psi_and_conjugates_once(self, spy, tmp_path):
        # osc-t4 runs the descent, the extraction and the Fenchel check
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "osc-t4.json")
        psi = spy(lti, "exp_action_integral")
        conjugates = spy(pwl, "conjugate")
        rep = run_scenario(cfg, tmp_path)
        assert rep.passed and "fenchel_gap" in rep.checks
        assert sum(np.ndim(tau) == 0 and tau == cfg.system.T for _, _, tau in psi) == 1
        assert len(conjugates) == cfg.system.channels

    def test_problem_is_freed_without_the_cycle_collector(self):
        # no constant refers back to the problem, so its rows and bracket
        # rows go with its last reference
        gc.disable()
        try:
            prob = oscillator_problem(six_point_ladder())
            rep = minimize(prob)
            extract_control(rep.p_T_star, prob)
            ref = weakref.ref(prob)
            del prob
            assert ref() is None
        finally:
            gc.enable()


def bracket_plants():
    """The oscillator, a six-state plant drawn as the ``synthesis`` benchmark
    draws them (rotations in [0.5, 2] turned by a random orthogonal Q, minus
    damping in [0.05, 0.3]), and the double integrator, whose A is singular."""
    rng = np.random.default_rng(6)
    S = np.zeros((6, 6))
    for i in range(0, 5, 2):
        S[i, i + 1] = rng.uniform(0.5, 2.0)
        S[i + 1, i] = -S[i, i + 1]
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    six_state = LtiSystem(A=Q @ S @ Q.T - rng.uniform(0.05, 0.3) * np.eye(6), B=rng.standard_normal((6, 1)),
                          x0=np.zeros(6), T=3.3)
    integrator = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=B_OSC, x0=X0, T=3.0)
    return [
        pytest.param(oscillator_problem(six_point_ladder()), id="oscillator"),
        pytest.param(DualProblem(six_state, [six_point_ladder()]), id="six-state"),
        pytest.param(DualProblem(integrator, [six_point_ladder()]), id="double-integrator"),
    ]


class TestBracketRows:
    @pytest.mark.parametrize("prob", bracket_plants())
    def test_quadrature_nodes_carry_the_quadrature_rows(self, prob):
        mult = prob.settings.bracket_multiplier
        tb, rows_b = prob.bracket_grid()
        assert tb.size == rows_b.shape[0] == (prob.grid.n - 1) * mult + 1
        assert np.array_equal(rows_b[::mult], prob.rows)
        single = DualProblem(prob.sys, prob.penalizations, settings=OptimizerSettings(bracket_multiplier=1))
        assert np.array_equal(single.bracket_grid()[1], single.rows)

    @pytest.mark.parametrize("prob", bracket_plants())
    def test_rows_match_one_exponential_per_node(self, prob):
        tb, rows_b = prob.bracket_grid()
        sys = prob.sys
        for j in np.random.default_rng(1).choice(tb.size, 50, replace=False):
            expected = sys.B.T @ sla.expm((sys.T - tb[j]) * sys.A.T)
            assert np.all(np.abs(rows_b[j] - expected) <= 1e-12 * (1.0 + np.abs(expected)))

    def test_solve_and_extraction_form_the_rows_once(self, spy):
        rows = spy(lti, "adjoint_rows")
        prob = oscillator_problem(six_point_ladder())
        rep = minimize(prob)
        assert rep.converged
        extract_control(rep.p_T_star, prob)
        assert len(rows) == 1
        assert np.array_equal(rows[0][3], prob.grid.nodes)


class TestOriginTest:
    def test_squared_origin_test_forms_no_exact_integral(self, spy, monkeypatch):
        # at p = 0, B^T p = 0, so I(0) is T times the penalizations at 0: no
        # crossing search and no exact integral
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "osc-t05-squared.json")
        prob = build_problem(cfg)
        searches = spy(extract, "find_switchings")
        integrals = spy(lti, "exp_action_integral")
        seen = []

        class OriginTested(Exception):
            pass

        def origin_test(prob, p_T, scale):
            seen.append((len(searches), len(integrals), scale))
            raise OriginTested

        monkeypatch.setattr(extract, "complementary_slackness", origin_test)
        with pytest.raises(OriginTested):
            minimize(prob)
        assert seen == [(0, 0, 0.0)]


def regular_problems():
    """Problems of each penalized kind with a datum off every breakpoint."""
    A = np.array([[0.0, 2.0, 0.0], [-2.0, 0.0, 1.0], [0.0, -1.0, -0.2]])
    B = np.array([[1.0, 0.0], [0.0, 0.5], [0.5, 1.0]])
    three_state = LtiSystem(A=A, B=B, x0=np.zeros(3), T=2.5)
    oscillator = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
    cases = []
    for kind in ("plain", "scaled", "squared"):
        grid = QuadratureGrid.trapezoid(4.0, 400)
        osc = DualProblem(oscillator, [six_point_ladder()], kind=kind, beta=2.0, grid=grid)
        cases.append(pytest.param(osc, np.array([0.9, -0.7]), id=f"oscillator-{kind}"))
        pens = [six_point_ladder(), five_point_ladder()]
        prob = DualProblem(three_state, pens, kind=kind, beta=2.0, grid=QuadratureGrid.trapezoid(2.5, 400))
        cases.append(pytest.param(prob, np.array([0.8, -1.1, 0.6]), id=f"three-state-{kind}"))
    return cases


class TestGeneralizedHessian:
    @pytest.mark.parametrize("prob, p", regular_problems())
    def test_matches_central_differences_of_the_gradient(self, prob, p):
        evaluator = ExactEvaluator(prob)
        pieces = evaluator.pieces(p)
        assert not any(pinned for _, _, pinned in pieces)
        assert sum(crossings.size for crossings, _, _ in pieces) >= p.size
        H = evaluator.hessian(p)
        assert np.array_equal(H, evaluator.hessian(p, pieces))
        h = 1e-5
        columns = []
        for e in np.eye(p.size):
            g_plus = evaluator.value_and_grad(p + h * e)[1]
            g_minus = evaluator.value_and_grad(p - h * e)[1]
            columns.append((g_plus - g_minus) / (2.0 * h))
        differences = np.array(columns).T
        assert np.allclose(H, differences, rtol=1e-5, atol=1e-6 * np.abs(H).max())
        assert np.allclose(H, H.T) and np.linalg.eigvalsh(H)[0] >= -1e-9 * np.abs(H).max()

    def test_zero_without_crossings(self):
        prob = oscillator_problem(six_point_ladder())
        assert np.array_equal(ExactEvaluator(prob).hessian(np.zeros(2)), np.zeros((2, 2)))


def tangency_problem(kind="scaled"):
    """A four-state plant whose scaled minimizer has B^T p tangent to a breakpoint."""
    A = [
        [-0.28597730168718416, 0.6310191542070166, 0.6996760375815712, -1.1696527722787649],
        [-0.6310191542070166, -0.28597730168718416, 0.5897319710478302, 0.7908248371547089],
        [-0.6996760375815712, -0.5897319710478303, -0.28597730168718416, -0.5950560870246404],
        [1.1696527722787646, -0.7908248371547089, 0.5950560870246404, -0.28597730168718416],
    ]
    B = [[0.05724462428210075], [-0.6367143260963386], [-2.168475081769634], [-1.099768727215913]]
    x0 = [3.5815203385156407, 6.989912044512685, -0.3744647374389798, 3.2624918654522945]
    T = 3.5127743985654556
    sys = LtiSystem(A=A, B=B, x0=x0, T=T)
    return DualProblem(sys, [six_point_ladder()], kind=kind, beta=2.0, grid=QuadratureGrid.trapezoid(T, 1000))


def sliver_problem(kind="plain"):
    """A three-state plant whose plain minimizer crosses a breakpoint 2.6e-10 before T."""
    A = [
        [-0.06982367775338795, -0.03813694809809198, -0.48094073455204894],
        [0.038136948098091955, -0.06982367775338794, 0.9798720448591328],
        [0.48094073455204894, -0.9798720448591328, -0.06982367775338791],
    ]
    B = [[1.192092896e-07], [0.0], [0.15634813631091737]]
    x0 = [-0.0047122029259757505, 0.011242983440566099, 0.00676351811299787]
    T = 1.9526229645513677
    sys = LtiSystem(A=A, B=B, x0=x0, T=T)
    return DualProblem(sys, [six_point_ladder()], kind=kind, beta=2.0, grid=QuadratureGrid.trapezoid(T, 1000))


def pinned_problem(kind="plain"):
    """A two-channel plant whose plain minimizer pins one channel on a breakpoint."""
    A = [[0.0, 0.7059717053547392], [0.0, 0.12629738929405337]]
    B = [[0.0, 0.0], [0.0, 0.23421852377764027]]
    x0 = [-0.00016500414141885737, 0.009339221931963083]
    sys = LtiSystem(A=A, B=B, x0=x0, T=1.0)
    pens = [six_point_ladder(), six_point_ladder()]
    return DualProblem(sys, pens, kind=kind, beta=2.0, grid=QuadratureGrid.trapezoid(1.0, 1000))


class TestNewtonPhase:
    def test_cap_inside_the_newton_phase_reports_the_last_newton_iterate(self):
        full = minimize(oscillator_problem(six_point_ladder()))
        assert full.converged and full.newton_steps >= 2
        handover = full.iterations - full.newton_steps - 1  # quadrature steps, the rejected one included
        prob = oscillator_problem(six_point_ladder(), settings=OptimizerSettings(max_iterations=handover + 1))
        rep = minimize(prob)
        assert rep.status is SolveStatus.ITERATION_CAP and "descent stalled" in rep.message
        assert rep.iterations == handover + 1 and rep.newton_steps == 1
        # the report holds the Newton iterate, with its exact value and gradient
        value, grad = ExactEvaluator(prob).value_and_grad(rep.p_T_star)
        assert rep.value == value and rep.grad_norm == float(np.linalg.norm(grad)) > prob.settings.gtol
        assert rep.trace[-1, 1] == float(np.linalg.norm(rep.p_T_star))

    def test_counters_of_a_converged_run(self):
        rep = minimize(oscillator_problem(six_point_ladder()))
        assert rep.converged and rep.grad_norm <= 1e-6
        assert 0 < rep.newton_steps < rep.iterations
        assert rep.trace.shape == (rep.iterations, 3)

    def test_gradient_steps_past_a_tangency(self):
        # at the minimizer B^T p touches the breakpoint -0.2 near t = 2.93;
        # the generalized Hessian has rank 2 of 4 there, no step along the
        # Newton direction decreases the value, and steps along -g do
        prob = tangency_problem()
        rep = minimize(prob)
        assert rep.converged and rep.grad_norm <= prob.settings.gtol
        ctrl = extract_control(rep.p_T_star, prob)
        switches = ctrl.channels[0].switch_times
        assert simulate_forward(prob.sys, ctrl, np.union1d(prob.grid.nodes, switches)).terminal_norm <= 1e-6

    def test_a_sliver_beside_a_crossing_is_not_pinned(self):
        # B^T p rises above the breakpoint 0.2 and returns to it 2.6e-10
        # before T; every probe of that last interval lies on the kink, but
        # the datum is regular and its staircase steers x0
        prob = sliver_problem()
        T = prob.sys.T
        rep = minimize(prob)
        assert rep.converged
        [(crossings, _, pinned)] = ExactEvaluator(prob).pieces(rep.p_T_star)
        assert T - crossings[-1] < 1e-9 and not pinned
        ctrl = extract_control(rep.p_T_star, prob)
        switches = ctrl.channels[0].switch_times
        assert simulate_forward(prob.sys, ctrl, np.union1d(prob.grid.nodes, switches)).terminal_norm <= 1e-6

    def test_a_pinned_datum_that_trips_the_midpoint_guard_extracts(self):
        # B^T p = 0.234 (p1 e^{0.126 s} + 5.59 p0 (e^{0.126 s} - 1)) on the
        # second channel is constant where p1 = -5.59 p0; the minimizer pins
        # it on the breakpoint -0.2 up to rounding, and those rounding-level
        # crossings fall inside single bracket cells
        prob = pinned_problem()
        sys = prob.sys
        rep = minimize(prob)
        assert rep.converged and "active breakpoints" in rep.message
        with pytest.raises(ValueError, match="two crossings"):
            ExactEvaluator(prob).pieces(rep.p_T_star, midpoint_guard=True)
        ctrl = extract_control(rep.p_T_star, prob)
        for ch in ctrl.channels:
            assert verify_staircase(ctrl, ch.level_set)[0]
        switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
        assert simulate_forward(sys, ctrl, np.union1d(prob.grid.nodes, switches)).terminal_norm <= 1e-9



def halving_search(evaluator, p, J, g, d):
    """The reference line search: p + d, p + d/2, ... until the first step
    that passes the Armijo test, or None below the rounding floor.
    Returns (found, halvings, trials) as :func:`dual.line_search` does."""
    slope = float(g @ d)
    floor = np.finfo(float).eps * (1.0 + float(np.linalg.norm(p))) / float(np.linalg.norm(d))
    t, halvings = 1.0, 0
    while t > floor:
        cand = p + t * d
        cand_pieces = evaluator.pieces(cand)
        J_cand, g_cand = evaluator.value_and_grad(cand, cand_pieces)
        if J_cand < J and J_cand <= J + dual.ARMIJO * t * slope:
            return (t, cand, J_cand, g_cand, cand_pieces), halvings, halvings + 1
        t *= 0.5
        halvings += 1
    return None, halvings, halvings


def floor_exponent(p, d):
    """k_end: the first k with 2^-k at or below the rounding floor."""
    floor = np.finfo(float).eps * (1.0 + float(np.linalg.norm(p))) / float(np.linalg.norm(d))
    return next(k for k in range(1100) if 0.5**k <= floor)


def newton_plants():
    builders = {
        "oscillator": lambda kind: oscillator_problem(six_point_ladder(), kind=kind, beta=2.0),
        "tangency": tangency_problem,
        "sliver": sliver_problem,
        "pinned": pinned_problem,
    }
    return [
        pytest.param(build, kind, id=f"{name}-{kind}")
        for name, build in builders.items()
        for kind in ("plain", "scaled", "squared")
    ]


class TestLineSearch:
    @pytest.mark.parametrize("build, kind", newton_plants())
    def test_bisection_takes_the_halving_step(self, build, kind, monkeypatch):
        # at every line search of a solve, the bisection on the exponent
        # returns a step that passes the test, from at most 1 + log2 k_end
        # evaluations; where the halving loop's step decreases the value by
        # more than rounding, it is that step, with the same candidate bytes
        # and halving count (below rounding, both pick a step by the noise
        # of the value: the tangency plant's scaled solve has such searches)
        searches = []

        def checked(evaluator, p, J, g, d):
            found, k, trials = line_search(evaluator, p, J, g, d)
            ref, ref_k, _ = halving_search(evaluator, p, J, g, d)
            slope = float(g @ d)
            k_end = floor_exponent(p, d)
            assert trials <= 1 + int(np.ceil(np.log2(k_end)))
            if found is None:
                assert k == k_end
            else:
                t, cand, value, grad, _ = found
                assert t == 0.5**k and cand.tobytes() == (p + t * d).tobytes()
                assert value < J and value <= J + dual.ARMIJO * t * slope
            if ref is not None and J + dual.ARMIJO * ref[0] * slope < J:
                assert found is not None and k == ref_k and value == ref[2]
                assert cand.tobytes() == ref[1].tobytes() and grad.tobytes() == ref[3].tobytes()
            searches.append((k, trials))
            return found, k, trials

        monkeypatch.setattr(dual, "line_search", checked)
        rep = minimize(build(kind))
        assert rep.converged and rep.newton_steps > 0
        assert rep.line_search_halvings == sum(k for k, _ in searches)
        assert rep.line_search_trials == sum(n for _, n in searches)

    def test_an_ascent_direction_finds_no_step(self):
        prob = oscillator_problem(six_point_ladder())
        evaluator = ExactEvaluator(prob)
        p = np.array([0.9, -0.7])
        J, g = evaluator.value_and_grad(p)
        found, k, trials = line_search(evaluator, p, J, g, g)
        k_end = floor_exponent(p, g)
        assert found is None and k == k_end
        assert trials <= 1 + int(np.ceil(np.log2(k_end)))

    def test_the_first_step_from_the_origin_is_cheap(self):
        # at the origin H = 0, so the Newton step is -g / mu, about 1e10 |g|
        # long, and the halving loop needs dozens of trials
        prob = oscillator_problem(six_point_ladder())
        evaluator = ExactEvaluator(prob)
        p = np.zeros(2)
        J, g = evaluator.value_and_grad(p)
        assert not evaluator.hessian(p).any()
        d = -g / dual.NEWTON_REGULARIZATION
        found, k, trials = line_search(evaluator, p, J, g, d)
        ref, ref_k, ref_trials = halving_search(evaluator, p, J, g, d)
        assert found is not None and found[0] == ref[0] and k == ref_k >= 30
        assert trials <= 2 + int(np.ceil(np.log2(floor_exponent(p, d)))) < ref_trials

    def test_a_negative_squared_integral_still_gets_an_armijo_step(self):
        # on the one-sided ladder {1, 2, 3} the chord extension 3u - 2 is
        # negative below u = 2/3, so I < 0 here; I^2 / 2 then grows where I
        # falls, the functional is not convex along d, and the passing
        # exponents are 2, 4, 5, ...: halving stops at k = 2, bisection at
        # k = 4, and that step passes the Armijo test too
        prof = quadratic_profile()
        relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        pen = build_penalization(relaxed, Partition(np.array([1.0, 2.0, 3.0])))
        prob = oscillator_problem(pen, kind="squared", grid=QuadratureGrid.trapezoid(4.0, 400))
        evaluator = ExactEvaluator(prob)
        p, d = np.array([0.9, -0.47]), np.array([3.9, 10.2])
        J, g = evaluator.value_and_grad(p)
        assert evaluator.integral_and_grad(p)[0] < 0.0 and float(g @ d) < 0.0
        assert halving_search(evaluator, p, J, g, d)[1] == 2
        found, k, _ = line_search(evaluator, p, J, g, d)
        assert found is not None and k == 4
        t, cand, value, grad, _ = found
        assert t == 0.5**4 and cand.tobytes() == (p + t * d).tobytes()
        exact_value, exact_grad = evaluator.value_and_grad(cand)
        assert value == exact_value and grad.tobytes() == exact_grad.tobytes()
        assert value < J and value <= J + dual.ARMIJO * t * float(g @ d)


TOP_REACH = 0.6


@st.composite
def steerable_plants(draw):
    """Plants with 2-3 states and 1-2 channels on the six-point ladder
    (levels 0, +-0.8, +-1.6), with x0 = -e^{-TA} x_T(u) for a staircase u
    that walks between adjacent levels within TOP_REACH of the top level,
    so that a staircase steers x0 to 0 at T.  A = Q S Q^T - delta I, with S
    a rotation block of frequency in [0.5, 2], Q orthogonal and damping
    delta in [0.05, 0.3], and B has entries in [-1, 1], as in the benchmark's
    synthesis plants; (A, B) is controllable."""
    N = draw(st.integers(2, 3))
    K = draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    w = draw(st.floats(0.5, 2.0))
    S = np.zeros((N, N))
    S[0, 1], S[1, 0] = w, -w
    Q, _ = np.linalg.qr(np.array(draw(st.lists(entries, min_size=N * N, max_size=N * N))).reshape(N, N))
    A = Q @ S @ Q.T - draw(st.floats(0.05, 0.3)) * np.eye(N)
    B = np.array(draw(st.lists(entries, min_size=N * K, max_size=N * K))).reshape(N, K)
    assume(kalman_rank(A, B) == N)
    T = draw(st.floats(1.0, 4.0))
    ladder = six_point_ladder().slopes
    allowed = ladder[np.abs(ladder) <= TOP_REACH * np.abs(ladder).max()]
    staircases = []
    for _ in range(K):
        times = np.unique(draw(st.lists(st.floats(0.05 * T, 0.95 * T), min_size=1, max_size=4)))
        j = draw(st.integers(0, allowed.size - 1))
        levels = [allowed[j]]
        for _ in times:
            j += draw(st.sampled_from([d for d in (-1, 1) if 0 <= j + d < allowed.size]))
            levels.append(allowed[j])
        staircases.append((times, np.array(levels)))
    grid = QuadratureGrid.trapezoid(T, 1000)

    def u(t):
        return [levels[np.searchsorted(times, t)] for times, levels in staircases]

    sim_grid = np.unique(np.concatenate([grid.nodes] + [times for times, _ in staircases]))
    x_T = simulate_forward(LtiSystem(A=A, B=B, x0=np.zeros(N), T=T), u, sim_grid).terminal
    x0 = -mat_exp(A, -T) @ x_T
    return DualProblem(LtiSystem(A=A, B=B, x0=x0, T=T), [six_point_ladder() for _ in range(K)], grid=grid)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(prob=steerable_plants())
def test_newton_finish_steers_feasible_plants(prob):
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED, rep.message
    ctrl = extract_control(rep.p_T_star, prob)
    for ch in ctrl.channels:
        assert verify_staircase(ctrl, ch.level_set)[0]
    switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
    traj = simulate_forward(prob.sys, ctrl, np.union1d(prob.grid.nodes, switches))
    assert traj.terminal_norm <= 1e-6
