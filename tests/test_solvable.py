import numpy as np
import pytest

from multilevel_control import (
    ConvexProfile,
    DualProblem,
    LtiSystem,
    Partition,
    SolveStatus,
    build_penalization,
    extract_control,
    minimize,
    quadratic_profile,
    run_scenario,
    simulate_forward,
    solvable_bound,
)
from multilevel_control.config import parse_config

A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
B_OSC = np.array([[0.0], [1.0]])


def five_point_ladder():
    return build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))


class TestGramNorm:
    def test_zero_generator(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=[[1.0], [0.0]], x0=[0.1, 0.0], T=2.25)
        rep = solvable_bound(sys, five_point_ladder())
        assert rep.gram_norm == pytest.approx(np.sqrt(2.25), rel=1e-12)
        assert rep.sigma_bar == 1.5
        # sigma_bar * sqrt(T) * ||e^{-tau A} B||_{L^2(0,T)}
        assert rep.bound == pytest.approx(1.5 * 2.25, rel=1e-12)

    def test_oscillator_orthogonal_flow(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=[-1.0, 0.5], T=4.0)
        rep = solvable_bound(sys, five_point_ladder())
        assert rep.gram_norm == pytest.approx(2.0, rel=1e-8)

    def test_scalar_closed_form(self):
        for T in (0.5, 1.0, 3.0):
            sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[0.1], T=T)
            rep = solvable_bound(sys, five_point_ladder())
            expected = np.sqrt((1.0 - np.exp(-2.0 * T)) / 2.0)
            assert rep.gram_norm == pytest.approx(expected, rel=1e-8)

    def test_monotone_in_horizon(self):
        bounds = []
        for T in (0.5, 1.0, 2.0, 4.0, 8.0):
            sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[0.1], T=T)
            bounds.append(solvable_bound(sys, five_point_ladder()).bound)
        assert all(b2 >= b1 for b1, b2 in zip(bounds[:-1], bounds[1:]))

    def test_multi_channel_rejected(self):
        sys = LtiSystem(A=A_OSC, B=np.eye(2), x0=[0.0, 0.0], T=1.0)
        with pytest.raises(ValueError):
            solvable_bound(sys, five_point_ladder())

    def test_scale_multiplies_sigma(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=[-1.0, 0.5], T=4.0)
        base = solvable_bound(sys, five_point_ladder())
        scaled = solvable_bound(sys, five_point_ladder(), scale=3.0)
        assert scaled.sigma_bar == pytest.approx(3.0 * base.sigma_bar, rel=1e-15)


class TestNecessity:
    def test_controlled_scenario_satisfies_bound(self):
        # a converged run that actually steers to zero must pass the bound
        prof = quadratic_profile()
        relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        pen = build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=[-1.0, 0.5], T=4.0)
        prob = DualProblem(sys, [pen])
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        ctrl = extract_control(rep.p_T_star, prob)
        grid = np.union1d(prob.grid.nodes, ctrl.channels[0].switch_times)
        assert simulate_forward(sys, ctrl, grid).terminal_norm <= 1e-6
        report = solvable_bound(sys, pen, scale=ctrl.scale)
        assert report.passes

    def test_steerable_state_beyond_the_unit_horizon_passes(self):
        # T = 4: sigma_bar * ||e^{-tau A} B||_{L^2} = 3.0 < |x0| = 3.1, yet a
        # verified staircase steers x0; only the sqrt(T) factor makes the
        # bound necessary
        x0 = 3.1 * np.array([-1.0, 0.5]) / np.linalg.norm([-1.0, 0.5])
        raw = {
            "system": {"A": A_OSC.tolist(), "B": B_OSC.tolist(), "x0": x0.tolist(), "T": 4.0},
            "penalization": {"partitions": [[-1.0, -0.5, 0.0, 0.5, 1.0]]},
            "checks": {"terminal_tol": 1e-6, "solvable": True},
        }
        rep = run_scenario(parse_config(raw), None)
        assert rep.status == "converged" and rep.terminal_norm <= 1e-6
        checks = ["converged", "extraction", "terminal", "staircase", "solvable_bound"]
        assert rep.checks == dict.fromkeys(checks, True)
        assert rep.solvable["bound"] == pytest.approx(6.0, rel=1e-12) and rep.exit_code == 0

    def test_violating_state_is_not_steerable(self):
        # norm above the bound: the plain functional cannot null it, and the
        # report says so
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=[3.0, 2.0], T=1.0)
        pen = five_point_ladder()
        report = solvable_bound(sys, pen)
        assert not report.passes
