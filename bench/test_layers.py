"""Per-layer timings of the dual pipeline on the synthesis plants.

    python -m pytest -q bench --benchmark-json out.json   # time every case
    python -m pytest -q bench --benchmark-disable         # run each case once

The plants come from ``perfbench/workloads.synthesis_panel()`` and are built
as the ``synthesis`` workload builds them (4000 quadrature nodes, 8x
bracketing, so the bracket grid has 32,001 nodes): syn-01 has two channels
and 8 breakpoints each, syn-11 has six states, one channel and 16
breakpoints.  Every plant case runs at a fixed datum, the one ``minimize``
returns within ``DESCENT_STEPS`` steps (both plants converge there), so its
crossings are those of the minimizer.  One case times the crossing search
on samples that all sit on a breakpoint, as at a zero datum, and one the
discrete Fenchel primal LP on the data of acceptance criterion 1.  Two
cases time the adjoint rows: the recurrence on the quadrature nodes, and
the bracket rows formed from those rows.  The last case propagates the
staircase extracted at the datum with ``simulate_forward``.
The ``minimize`` case times the whole solve and records its step counts
in ``extra_info``, so that the cost per step is its time over
``iterations`` in ``--benchmark-json``.
"""

import numpy as np
import pytest

import workloads
from multilevel_control import dual, extract, fenchel, lti, pwl

PLANTS = {"syn-01": 1, "syn-11": 11}
DESCENT_STEPS = 200


@pytest.fixture(scope="module", params=sorted(PLANTS))
def plant(request):
    inst = workloads.synthesis_panel()[PLANTS[request.param]]
    assert inst.op_id.startswith(request.param)
    sys_ = lti.LtiSystem(A=inst.A, B=inst.B, x0=inst.x0, T=inst.T)
    prob = dual.DualProblem(
        sys_,
        [workloads._penalization(inst.partition) for _ in range(sys_.channels)],
        kind=inst.kind,
        beta=inst.beta,
        grid=dual.QuadratureGrid.trapezoid(inst.T, workloads.GRID_NODES),
        settings=dual.OptimizerSettings(
            max_iterations=DESCENT_STEPS, bracket_multiplier=workloads.BRACKET_MULTIPLIER
        ),
    )
    prob.bracket_grid()
    return prob, dual.minimize(prob).p_T_star


def test_exact_value_and_grad(benchmark, plant):
    prob, p = plant
    evaluator = dual.ExactEvaluator(prob)
    benchmark(evaluator.value_and_grad, p)


def test_minimize(benchmark, plant):
    """The solve from the origin: quadrature steps, then Newton steps on the
    exact functional until it converges, within ``DESCENT_STEPS`` steps."""
    prob, _ = plant
    rep = benchmark(dual.minimize, prob)
    benchmark.extra_info["iterations"] = rep.iterations
    benchmark.extra_info["newton_steps"] = rep.newton_steps
    benchmark.extra_info["line_search_trials"] = rep.line_search_trials
    benchmark.extra_info["status"] = rep.status.value
    assert rep.converged


def test_quadrature_value_and_grad(benchmark, plant):
    """One candidate of the quadrature descent: its value and gradient."""
    prob, p = plant

    def pair():
        q = prob.adjoint_observations(p)
        return dual.eval_functional(prob, p, q), dual.eval_subgradient(prob, p, q)

    benchmark(pair)


@pytest.mark.parametrize("guard", [False, True], ids=["pieces", "extract"])
def test_find_switchings(benchmark, plant, guard):
    """Channel 0 on the bracket grid, without the midpoint guard as the
    exact evaluation calls it and with it as extraction does."""
    prob, p = plant
    tb, rows_b = prob.bracket_grid()
    samples = (rows_b @ p)[:, 0]
    pen = prob.penalizations[0]
    benchmark(
        extract.find_switchings,
        lambda t: prob.propagator(t, p)[:, 0],
        pen.breakpoints,
        tb,
        samples=samples,
        midpoint_guard=guard,
    )


def test_find_switchings_all_hits(benchmark):
    """q = 0 on a 32,001-node grid against the breakpoint 0, as at a zero
    datum whose ladder has no zero level: every sample is an exact hit."""
    grid = np.linspace(0.0, 4.0, (workloads.GRID_NODES - 1) * workloads.BRACKET_MULTIPLIER + 1)
    benchmark(
        extract.find_switchings,
        lambda t: np.zeros(np.size(t)),
        np.array([0.0]),
        grid,
        samples=np.zeros(grid.size),
        midpoint_guard=False,
    )


def test_solve_discrete_primal(benchmark):
    """The N-row primal LP on criterion-1 data (oscillator, T = 4, x0 =
    (-1, 0.5), four-level ladder, 4000 nodes), whose dual minimizer is the
    degenerate origin: the LP that certifies it and selects its staircase."""
    sys_ = lti.LtiSystem(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], x0=[-1.0, 0.5], T=4.0)
    partition = pwl.Partition(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    ladder = pwl.build_penalization(pwl.quadratic_profile(), partition)
    dp = fenchel.build_discrete_primal(dual.DualProblem(sys_, [ladder]))
    benchmark(fenchel.solve_primal, dp)


def test_extract_control(benchmark, plant):
    """The staircase at the fixed datum: its crossings with the midpoint
    guard, the segment probes and the levels."""
    prob, p = plant
    benchmark(extract.extract_control, p, prob)


def test_adjoint_rows(benchmark, plant):
    """The quadrature rows by the one-step recurrence, the only nodes it runs on."""
    prob, _ = plant
    A, B, T = prob.sys.A, prob.sys.B, prob.sys.T
    benchmark(lti.adjoint_rows, A, B, T, prob.grid.nodes)


def test_bracket_rows(benchmark, plant):
    """The 32,001 bracket rows formed from the cached quadrature rows."""
    prob, _ = plant

    def form():
        prob._bracket = None
        return prob.bracket_grid()

    benchmark(form)


def test_simulate_forward(benchmark, plant):
    """The staircase at the fixed datum propagated through the quadrature
    nodes joined with its switch times, as the synthesis op checks it."""
    prob, p = plant
    ctrl = extract.extract_control(p, prob)
    switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
    benchmark(lti.simulate_forward, prob.sys, ctrl, np.union1d(prob.grid.nodes, switches))
