from pathlib import Path

import numpy as np
import pytest

from multilevel_control import (
    ConvexProfile,
    DualProblem,
    InfeasiblePrimalError,
    LtiSystem,
    Partition,
    QuadratureGrid,
    SolveStatus,
    build_discrete_primal,
    build_penalization,
    conjugate,
    duality_gap,
    extract_control,
    load_config,
    minimize,
    optimality_fraction,
    quadratic_profile,
    simulate_forward,
    solve_primal,
)
from multilevel_control.experiments import build_problem

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
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
    return build_penalization(quadratic_profile(), Partition(np.array([-1.0, 0.0, 1.0])))


@pytest.fixture(scope="module")
def oscillator_case():
    """Solved dual + primal pair on the six-level oscillator scenario."""
    sys = LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0)
    prob = DualProblem(sys, [six_point_ladder()])
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED
    primal = solve_primal(build_discrete_primal(prob))
    return prob, rep, primal


class TestSolvePrimal:
    def test_zero_state_minimal_conjugate_objective(self):
        # objective = T * min of the conjugate; zero for a ladder vanishing
        # at the origin, T * (-min penalization) otherwise
        for ladder, opt_per_time in ((five_point_ladder(), 0.0), (six_point_ladder(), -0.04)):
            sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.zeros(2), T=2.0)
            prob = DualProblem(sys, [ladder], grid=QuadratureGrid.trapezoid(2.0, 800))
            sol = solve_primal(build_discrete_primal(prob))
            assert sol.objective == pytest.approx(2.0 * opt_per_time, abs=1e-10)
            assert sol.residual <= 1e-10

    def test_feasibility_and_domain(self, oscillator_case):
        prob, _, primal = oscillator_case
        dp = build_discrete_primal(prob)
        assert primal.residual <= 1e-8 * (1.0 + np.linalg.norm(dp.c))
        lo, hi = dp.conjugates[0].domain
        assert np.all(primal.v >= lo - 1e-12) and np.all(primal.v <= hi + 1e-12)

    def test_scalar_integrator_reachability(self):
        # x' = u with |u| <= 1 on [0, 1]: steerable exactly when |x0| <= 1
        for x0, feasible in ((0.5, True), (0.99, True), (1.5, False)):
            sys = LtiSystem(A=[[0.0]], B=[[1.0]], x0=[x0], T=1.0)
            prob = DualProblem(sys, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 1000))
            dp = build_discrete_primal(prob)
            if feasible:
                sol = solve_primal(dp)
                assert sol.objective == pytest.approx(0.0, abs=1e-12)
            else:
                with pytest.raises(InfeasiblePrimalError):
                    solve_primal(dp)

    def test_feasible_solution_steers_state(self, oscillator_case):
        prob, _, primal = oscillator_case
        v = primal.v[:, 0]
        nodes = prob.grid.nodes

        def u(t):
            return np.interp(t, nodes, v)

        traj = simulate_forward(prob.sys, u, nodes)
        assert traj.terminal_norm <= 1e-6 * (1.0 + np.linalg.norm(X0))


class TestDualityGap:
    def test_zero_state_gap_exactly_zero(self):
        # ladder vanishing at 0: both objectives are exactly zero
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.zeros(2), T=2.0)
        prob = DualProblem(sys, [five_point_ladder()], grid=QuadratureGrid.trapezoid(2.0, 800))
        sol = solve_primal(build_discrete_primal(prob))
        gap = duality_gap(sol.v, np.zeros(2), prob)
        assert gap.gap == 0.0 and gap.primal_value == 0.0 and gap.dual_value == 0.0

    def test_oscillator_strong_duality(self, oscillator_case):
        prob, rep, primal = oscillator_case
        gap = duality_gap(primal.v, rep.p_T_star, prob)
        assert abs(gap.gap) <= 1e-3 * (1.0 + abs(gap.primal_value))
        assert gap.primal_value > 0.0 and gap.dual_value < 0.0

    def test_perturbed_dual_grows_gap(self, oscillator_case):
        prob, rep, primal = oscillator_case
        d = np.array([0.6, -0.8])
        gaps = []
        for eps in (0.0, 0.1, 0.2, 0.4):
            gaps.append(duality_gap(primal.v, rep.p_T_star + eps * d, prob).gap)
        assert all(g2 > g1 - 1e-12 for g1, g2 in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] > gaps[0] + 1e-3

    def test_grid_mismatch_rejected(self, oscillator_case):
        prob, rep, _ = oscillator_case
        with pytest.raises(ValueError):
            duality_gap(np.zeros(17), rep.p_T_star, prob)


class TestOptimality:
    def test_primal_dual_control_agreement(self, oscillator_case):
        prob, rep, primal = oscillator_case
        ctrl = extract_control(rep.p_T_star, prob)
        uml = ctrl.channels[0](prob.grid.nodes)
        w = prob.grid.weights
        dist = np.sqrt(w @ (primal.v[:, 0] - uml) ** 2)
        assert dist <= 0.05 * np.sqrt(w @ uml**2)

    def test_conjugate_subdifferential_relation(self, oscillator_case):
        prob, rep, primal = oscillator_case
        assert optimality_fraction(primal.v, rep.p_T_star, prob) >= 0.99


def _optimality_fraction_reference(v, p_T_star, prob, slack=1e-6):
    """Per-node scalar form of the conjugate optimality relation."""
    q = prob.adjoint_observations(p_T_star)
    ok = 0
    for ch, pen in enumerate(prob.penalizations):
        conj = conjugate(pen)
        lo_d, hi_d = conj.domain
        for i in range(prob.grid.n):
            x = float(v[i, ch])
            if x <= lo_d + slack:
                lo, hi = -np.inf, conj.slopes[0]
            elif x >= hi_d - slack:
                lo, hi = conj.slopes[-1], np.inf
            else:
                d = np.abs(x - conj.breakpoints)
                j = int(np.argmin(d))
                if d[j] <= slack:
                    lo, hi = conj.slopes[j], conj.slopes[j + 1]
                else:
                    lo = hi = conj.slopes[conj.segment_index(x)]
            ok += lo - slack <= q[i, ch] <= hi + slack
    return ok / (prob.grid.n * prob.channels)


@pytest.mark.parametrize("name", ["osc-t4", "osc-t4-two-channel"])
def test_optimality_fraction_matches_per_node_reference(name):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    prob = build_problem(cfg)
    rep = minimize(prob)
    assert rep.status is SolveStatus.CONVERGED
    primal = solve_primal(build_discrete_primal(prob))
    expected = _optimality_fraction_reference(primal.v, rep.p_T_star, prob)
    assert optimality_fraction(primal.v, rep.p_T_star, prob) == expected
