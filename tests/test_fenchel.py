import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

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
    fenchel,
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


def four_level_ladder():
    return build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))


def criterion1_problem():
    """The four-level oscillator of acceptance criterion 1 (4000 nodes);
    its dual minimizer is the origin and the primal optimal face is flat."""
    return DualProblem(LtiSystem(A=A_OSC, B=B_OSC, x0=X0, T=4.0), [four_level_ladder()])


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

    @pytest.fixture
    def lps(self, monkeypatch):
        """(cost, result) of each LP that solve_primal solves."""
        calls = []
        lp = fenchel.linprog

        def counted(cost, **kwargs):
            calls.append((cost, lp(cost, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(fenchel, "linprog", counted)
        return calls

    def test_solve_primal_calls_the_module_linprog_for_every_lp(self, lps):
        # solve_primal reads the module attribute, so a wrapper there sees its
        # LPs: this optimal face is no point, so the moment stage runs too
        plant = LtiSystem(A=[[0.0]], B=[[1.0]], x0=[0.5], T=1.0)
        prob = DualProblem(plant, [abs_ladder()], grid=QuadratureGrid.trapezoid(1.0, 100))
        sol = solve_primal(build_discrete_primal(prob))
        assert len(lps) == 2
        assert sol.iterations == sum(res.nit for _, res in lps)

    def test_the_moment_stage_keeps_the_optimum(self, lps):
        # criterion 5's data, whose optimal face holds every selection of
        # [-0.5, 0.5]: the moment's minimizer costs what the first solve does
        solve_primal(build_discrete_primal(criterion1_problem()))
        (cost, first), (_, second) = lps
        assert cost @ second.x == pytest.approx(first.fun, rel=1e-9)

    def test_a_regular_datum_solves_one_lp(self, lps):
        # osc-t4's optimal face is a point, so the suite's Fenchel check
        # solves one LP
        solve_primal(build_discrete_primal(build_problem(load_config(CONFIG_DIR / "osc-t4.json"))))
        assert len(lps) == 1

    def test_highs_is_imported_by_the_first_lp(self):
        # in a fresh interpreter, importing every module leaves scipy.optimize
        # out; the first solve_primal loads it
        code = """
import sys
import multilevel_control
from multilevel_control import cli, config, dual, experiments, extract, fenchel, lti, pwl, solvable
print("scipy.optimize" in sys.modules)
prob = dual.DualProblem(
    lti.LtiSystem(A=[[0.0]], B=[[1.0]], x0=[0.5], T=1.0),
    [pwl.build_penalization(pwl.quadratic_profile(), pwl.Partition([-1.0, 0.0, 1.0]))],
    grid=dual.QuadratureGrid.trapezoid(1.0, 100),
)
fenchel.solve_primal(fenchel.build_discrete_primal(prob))
print("scipy.optimize" in sys.modules)
"""
        src = str(Path(fenchel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "True"]

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


def _epigraph_objective_reference(dp):
    """Optimal value of the discrete primal in epigraph form: every node
    control v gets a variable t >= a_j v + c_j for every piece j of its
    conjugate, and the objective is the quadrature of t."""
    n, K = dp.n, dp.channels
    nv = n * K
    rows, cols, data, rhs = [], [], [], []
    for ch, conj in enumerate(dp.conjugates):
        for a_j, c_j in zip(conj.slopes, conj.intercepts):
            for i in range(n):
                r = len(rhs)
                rows += [r, r]
                cols += [i * K + ch, nv + i * K + ch]
                data += [a_j, -1.0]
                rhs.append(-c_j)
    A_ub = sp.csr_matrix((data, (rows, cols)), shape=(len(rhs), 2 * nv))
    A_eq = sp.hstack([sp.csr_matrix(dp.G), sp.csr_matrix((dp.G.shape[0], nv))]).tocsr()
    obj = np.concatenate([np.zeros(nv), np.repeat(dp.weights, K)])
    domains = [conj.domain for conj in dp.conjugates]
    bounds = [domains[k % K] for k in range(nv)] + [(None, None)] * nv
    res = linprog(obj, A_ub=A_ub, b_ub=np.asarray(rhs), A_eq=A_eq, b_eq=dp.c, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _primal_case(name):
    if name.startswith("osc"):
        return build_discrete_primal(build_problem(load_config(CONFIG_DIR / f"{name}.json")))
    dp = build_discrete_primal(criterion1_problem())
    # the scaled kind's primal, beta = 3, in units of the level scale
    return dp if name == "criterion-1" else replace(dp, c=dp.c / 3.0)


@pytest.mark.parametrize("name", ["osc-t4", "osc-t4-two-channel", "criterion-1", "criterion-1-c-over-3"])
def test_primal_objective_matches_epigraph_reference(name):
    dp = _primal_case(name)
    sol = solve_primal(dp)
    expected = _epigraph_objective_reference(dp)
    assert sol.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert sol.residual <= 1e-10 * (1.0 + np.linalg.norm(dp.c))


def test_primal_is_a_vertex_on_a_flat_face():
    # criterion-1 data: the optimal face holds every selection of [-0.5, 0.5];
    # a vertex has at most N node values strictly between adjacent levels
    prob = criterion1_problem()
    v = solve_primal(build_discrete_primal(prob)).v[:, 0]
    levels = prob.penalizations[0].slopes
    off_ladder = np.min(np.abs(v[:, None] - levels[None, :]), axis=1) > 1e-9
    assert np.count_nonzero(off_ladder) <= prob.sys.A.shape[0]


def test_primal_objective_is_the_gap_primal_value():
    prob = build_problem(load_config(CONFIG_DIR / "osc-t4.json"))
    rep = minimize(prob)
    sol = solve_primal(build_discrete_primal(prob))
    assert sol.objective == duality_gap(sol.v, rep.p_T_star, prob).primal_value


@pytest.mark.parametrize("shape", [(1, 1), (17,)], ids=["1x1", "17"])
@pytest.mark.parametrize("check", [duality_gap, optimality_fraction])
def test_control_on_another_grid_rejected(check, shape):
    prob = criterion1_problem()
    with pytest.raises(ValueError, match="primal control has shape"):
        check(np.zeros(shape), np.zeros(2), prob)
