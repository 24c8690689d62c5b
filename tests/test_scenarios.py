"""End-to-end synthesis across structurally different plants: conservative,
dissipative, expansive and nilpotent dynamics."""

import numpy as np

from multilevel_control import (
    ConvexProfile,
    DualProblem,
    DynamicsClass,
    LtiSystem,
    Partition,
    QuadratureGrid,
    SolveStatus,
    build_penalization,
    classify_dynamics,
    extract_control,
    minimize,
    quadratic_profile,
    simulate_forward,
    verify_staircase,
)
from multilevel_control.dual import ExactEvaluator


def six_point_ladder():
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))


def synthesize(sys, kind="plain", nodes=2000):
    prob = DualProblem(sys, [six_point_ladder()], kind=kind, grid=QuadratureGrid.trapezoid(sys.T, nodes))
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED
    ctrl = extract_control(rep.p_T_star, prob)
    grid = np.union1d(prob.grid.nodes, np.concatenate([c.switch_times for c in ctrl.channels]))
    traj = simulate_forward(sys, ctrl, grid)
    for ch in ctrl.channels:
        ok, _ = verify_staircase(ctrl, ch.level_set)
        assert ok
    return ctrl, traj


class TestDissipativeSpiral:
    SYS = LtiSystem(
        A=[[-0.5, 1.0], [-1.0, -0.5]], B=[[0.0], [1.0]], x0=[0.8, -0.5], T=4.0
    )

    def test_classification(self):
        assert classify_dynamics(self.SYS.A) is DynamicsClass.DISSIPATIVE

    def test_plain_kind_controls(self):
        _, traj = synthesize(self.SYS)
        assert traj.terminal_norm <= 1e-5


class TestDoubleIntegrator:
    """Nilpotent A^T admits constant adjoint observations, so the plain-kind
    minimizer can pin the observation exactly onto a kink over the whole
    window; the solver certifies it and extraction selects a staircase
    between the two levels adjacent to that kink from the Fenchel primal.
    The squared kind moves the minimizer off the kink and synthesizes."""

    SYS = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], x0=[0.4, -0.3], T=3.0)

    def test_plain_kind_certified_degenerate(self):
        prob = DualProblem(
            self.SYS, [six_point_ladder()], grid=QuadratureGrid.trapezoid(3.0, 2000)
        )
        rep = minimize(prob)
        assert rep.status is SolveStatus.CONVERGED
        assert "active breakpoints" in rep.message
        # the observation sits exactly on the 0.2 kink: p* = (0, 0.2)
        assert np.allclose(rep.p_T_star, [0.0, 0.2], atol=1e-9)
        ctrl = extract_control(rep.p_T_star, prob)
        ch = ctrl.channels[0]
        assert np.all(np.isin(ch.levels, ch.level_set))
        ok, _ = verify_staircase(ctrl, ch.level_set)
        assert ok
        # exact zero-order hold: one step per constant piece
        traj = simulate_forward(self.SYS, ctrl, np.concatenate([[0.0], ch.switch_times, [self.SYS.T]]))
        assert traj.terminal_norm <= 1e-9

    def test_pieces_flag_the_snapped_datum_as_pinned(self):
        prob = DualProblem(
            self.SYS, [six_point_ladder()], grid=QuadratureGrid.trapezoid(3.0, 2000)
        )
        p_star = minimize(prob).p_T_star
        evaluator = ExactEvaluator(prob)
        [(crossings, ks, pinned)] = evaluator.pieces(p_star)
        assert pinned and crossings.size == 0
        # the same constant observation off the kink is regular
        [(crossings, ks, pinned)] = evaluator.pieces(p_star + np.array([0.0, 0.05]))
        assert not pinned and crossings.size == 0 and ks.size == 1

    def test_squared_kind_controls(self):
        _, traj = synthesize(self.SYS, kind="squared")
        assert traj.terminal_norm <= 1e-5

    def test_propagator_matches_matrix_exponentials(self):
        # A^T here is defective; the node rows times the Taylor polynomial
        # still agree with explicit matrix exponentials
        from multilevel_control import AdjointPropagator, mat_exp

        prop = AdjointPropagator(self.SYS.A, self.SYS.B, self.SYS.T, np.linspace(0.0, self.SYS.T, 400))
        p = np.array([0.3, -0.7])
        for t in (0.0, 1.2, 3.0):
            expected = self.SYS.B.T @ mat_exp(self.SYS.A.T, self.SYS.T - t) @ p
            assert np.allclose(prop(t, p)[0], expected, atol=1e-12)


class TestExpansiveSaddle:
    def test_squared_kind_handles_expansive_dynamics(self):
        sys = LtiSystem(A=[[0.3, 0.0], [0.0, -0.4]], B=[[1.0], [1.0]], x0=[0.2, 0.4], T=2.0)
        assert classify_dynamics(sys.A) is DynamicsClass.GENERAL
        _, traj = synthesize(sys, kind="squared")
        assert traj.terminal_norm <= 1e-5
