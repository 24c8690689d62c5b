import numpy as np
import pytest

from multilevel_control import (
    ChannelControl,
    ConvexProfile,
    DegenerateAdjointError,
    DualProblem,
    LtiSystem,
    MultilevelControl,
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
    verify_staircase,
)
from multilevel_control.dual import ExactEvaluator

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

    def test_hidden_double_crossing_raises(self):
        # two crossings of level 0.9 inside one coarse cell
        q = lambda t: np.sin(20.0 * np.asarray(t))
        grid = np.linspace(0, 1, 8)
        with pytest.raises(ValueError, match="finer"):
            find_switchings(q, [0.9], grid)

    def test_refinement_accuracy(self):
        grid = np.linspace(0, 2, 41)
        q = lambda t: np.cos(np.asarray(t) * 1.7) - 0.4
        crossings, _ = find_switchings(q, [0.0], grid)
        root = np.arccos(0.4) / 1.7
        assert crossings.size == 1
        assert abs(crossings[0] - root) < 1e-11


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
        tb, rows_b = prob.bracket_grid()
        crossings, _ = find_switchings(
            lambda t: prob.propagator(t, rep.p_T_star)[:, 0],
            pen.breakpoints,
            tb,
            samples=(rows_b @ rep.p_T_star)[:, 0],
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
        prob, rep = solved_oscillator(x0=np.zeros(2))
        ctrl = extract_control(rep.p_T_star, prob)
        assert ctrl.channels[0].levels.tolist() == [0.0]

    def test_degenerate_zero_datum_with_nonzero_state(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
        pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
        prob = DualProblem(sys, [pen])
        with pytest.raises(DegenerateAdjointError):
            extract_control(np.zeros(2), prob)

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
        traj = simulate_forward(sys, lambda t: u2(t)[0], np.linspace(0, 4, 4001))
        assert traj.terminal_norm <= 1e-4

    def test_rejects_penalized_kind(self):
        prob, rep = solved_oscillator()
        with pytest.raises(ValueError):
            quadratic_control(rep.p_T_star, prob)
