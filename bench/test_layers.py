"""Per-layer timings of the dual pipeline on the synthesis plants.

    python -m pytest -q bench --benchmark-json out.json   # time every case
    python -m pytest -q bench --benchmark-disable         # run each case once

The plants come from ``perfbench/workloads.synthesis_panel()`` and are built
as the ``synthesis`` workload builds them (4000 quadrature nodes, bracket
multiplier 8): syn-01 has two channels and 8 breakpoints each, syn-11 has
six states, one channel and 16 breakpoints.  Every plant case runs at a
fixed datum, the one ``minimize`` returns within ``DESCENT_STEPS`` steps
(both plants converge there), so its crossings are those of the minimizer.
The crossing-search case records, per channel, the quadrature cells that
the node screen keeps and those that their Bernstein coefficients cut, the
refinement steps, and the propagator calls in ``extra_info``.  On the data
of acceptance criterion 1, whose dual minimizer is the degenerate origin,
one case times the discrete Fenchel primal LP, the check of that origin, and
one the degenerate extraction there, recording its switch count and
Gauss-Newton steps in ``extra_info``.  One case times the adjoint rows on
the quadrature nodes.  The exact-evaluation
case times the closed-form integral at fixed pieces and records the Taylor
degree of both propagators.  Two cases propagate with
``simulate_forward``: the staircase extracted at the datum, and the
quadratic control of syn-07 (six states, two channels); both record their
cell count and distinct cell widths in ``extra_info``.
The ``minimize`` case times the whole solve and records its step counts
in ``extra_info``, so that the cost per step is its time over
``iterations`` in ``--benchmark-json``; a second ``minimize`` case times the
diverged solve of ``configs/osc-t05-plain.json`` and records its
``iterations`` and ``status``.  The line-search case times the first
Newton search from the origin and records its exponent and exact trials.
The steepest-subgradient case times the minimum-norm subgradient at three
kinked origins, two of them minimizers, and records Wolfe's major cycles.
The output-stage case times what
``run_scenario`` writes for ``configs/osc-t4.json``: its two JSON records
and its ``trajectory.csv`` and ``control.csv`` through ``write_csv``, the
suite's largest tables.
"""

import numpy as np
import pytest

import workloads
from multilevel_control import config, dual, experiments, extract, fenchel, lti, pwl

PLANTS = {"syn-01": 1, "syn-11": 11}
DESCENT_STEPS = 200


def instance_problem(inst, nodes=workloads.GRID_NODES):
    """The workloads' problem of ``inst``, capped at ``DESCENT_STEPS`` steps."""
    sys_ = lti.LtiSystem(A=inst.A, B=inst.B, x0=inst.x0, T=inst.T)
    return dual.DualProblem(
        sys_,
        [workloads._penalization(inst.partition) for _ in range(sys_.channels)],
        kind=inst.kind,
        beta=inst.beta,
        grid=dual.QuadratureGrid.trapezoid(inst.T, nodes),
        settings=dual.OptimizerSettings(
            max_iterations=DESCENT_STEPS, bracket_multiplier=workloads.BRACKET_MULTIPLIER
        ),
    )


@pytest.fixture(scope="module", params=sorted(PLANTS))
def plant(request):
    inst = workloads.synthesis_panel()[PLANTS[request.param]]
    assert inst.op_id.startswith(request.param)
    prob = instance_problem(inst)
    prob.bracket_grid()
    return prob, dual.minimize(prob).p_T_star


def test_exact_value_and_grad(benchmark, plant):
    prob, p = plant
    evaluator = dual.ExactEvaluator(prob)
    benchmark(evaluator.value_and_grad, p)


def test_exact_eval(benchmark, plant):
    """The exact integral term and gradient at the fixed datum from its
    pieces, found once outside the timed region: the Psi ends of all
    channels from one call of the augmented propagator.  ``extra_info``
    records the crossing count and the Taylor degree of the plant's and the
    augmented propagator."""
    prob, p = plant
    evaluator = dual.ExactEvaluator(prob)
    pieces = evaluator.pieces(p)
    benchmark.extra_info["taylor_degree"] = prob.propagator.degree
    benchmark.extra_info["psi_taylor_degree"] = prob.psi_propagator.degree
    benchmark.extra_info["crossings"] = int(sum(crossings.size for crossings, _, _ in pieces))
    benchmark(evaluator.integral_and_grad, p, pieces)


def test_minimize(benchmark, plant):
    """The solve from the origin: its test, then Newton steps on the exact
    functional until it converges, within ``DESCENT_STEPS`` steps."""
    prob, _ = plant
    rep = benchmark(dual.minimize, prob)
    benchmark.extra_info["iterations"] = rep.iterations
    benchmark.extra_info["newton_steps"] = rep.newton_steps
    benchmark.extra_info["line_search_trials"] = rep.line_search_trials
    benchmark.extra_info["status"] = rep.status.value
    assert rep.converged


def test_line_search(benchmark, plant):
    """The first Newton search from the origin, where H = 0 and the
    direction is -g / NEWTON_REGULARIZATION: the quadrature guess and the
    exact trials that confirm it.  ``extra_info`` records the exponent k of
    the step and the exact trials."""
    prob, _ = plant
    evaluator = dual.ExactEvaluator(prob)
    p = np.zeros(prob.sys.A.shape[0])
    J, g = evaluator.value_and_grad(p)
    assert not evaluator.hessian(p).any()
    found, k, trials = benchmark(dual.line_search, evaluator, p, J, g, -g / dual.NEWTON_REGULARIZATION)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["trials"] = trials
    assert found is not None


def test_minimize_diverged(benchmark):
    """The solve of osc-t05-plain, whose x0 no control on its ladder's hull
    steers to 0 at T = 0.5: it ends ``DIVERGED``."""
    prob = experiments.build_problem(config.load_config(workloads.CONFIGS / "osc-t05-plain.json"))
    rep = benchmark(dual.minimize, prob)
    benchmark.extra_info["iterations"] = rep.iterations
    benchmark.extra_info["status"] = rep.status.value
    assert rep.status is dual.SolveStatus.DIVERGED


@pytest.fixture(scope="module", params=["acc-c1", "deg-00", "osc-t05-plain"])
def kinked_origin(request):
    """A problem whose penalization is kinked at the origin: two ``certify``
    ops of seed 1 whose origin is the minimizer, with every node on the kink
    (criterion 1's oscillator at T = 4 and the first random degenerate op),
    and ``configs/osc-t05-plain.json``, whose origin is none.  The node rows
    are formed here."""
    if request.param == "osc-t05-plain":
        prob = experiments.build_problem(config.load_config(workloads.CONFIGS / "osc-t05-plain.json"))
    else:
        inst = next(case for case in workloads.certify_cases(1) if case.op_id.startswith(request.param))
        prob = instance_problem(inst, inst.nodes)
    prob.rows
    return request.param, prob


def test_steepest_subgradient(benchmark, kinked_origin):
    """The minimum-norm subgradient at a kinked origin: Wolfe's method on
    the node-sampled subdifferential.  ``extra_info`` records the zonotope's
    generators, the major cycles (one product with the generators each) and
    the norm, within the certificate's radius exactly at the two minimizers."""
    name, prob = kinked_origin
    zero = np.zeros(prob.sys.dim)
    s, radius = benchmark(dual.steepest_subgradient, prob, zero)
    c, h = dual.subdifferential(prob, zero)
    benchmark.extra_info["generators"] = h.shape[0]
    benchmark.extra_info["wolfe_cycles"] = dual._min_norm_point(c, h)[1]
    benchmark.extra_info["norm"] = float(np.linalg.norm(s))
    assert (benchmark.extra_info["norm"] <= radius) == (name != "osc-t05-plain")


def test_quadrature_value_and_grad(benchmark, plant):
    """The quadrature value and subgradient at the datum, from one product
    with the node rows: what the line search's guess and the origin's test
    read."""
    prob, p = plant

    def pair():
        q = prob.adjoint_observations(p)
        return dual.eval_functional(prob, p, q), dual.eval_subgradient(prob, p, q)

    benchmark(pair)


def _count_search(monkeypatch, prob, p):
    """One crossing search at p, counted per channel: the quadrature cells
    that the node screen keeps (those handed to ``dual._cuts``), the kept
    cells that their Bernstein coefficients cut, and the refinement steps
    (the propagator calls inside find_switchings); and all propagator calls
    of the search, the cut samples and the segment probes included."""
    screened, cut, steps, calls = [], [], [], []
    at, cuts = prob.propagator.at, dual._cuts

    def counted_at(p_T):
        q = at(p_T)

        def counted(t):
            calls.append(1)
            return q(t)

        return counted

    def counted_cuts(starts, *args):
        times, values = cuts(starts, *args)
        screened.append(int(starts.size))
        cut.append(int(np.unique(np.searchsorted(starts, np.concatenate([starts[:0], *times]))).size))
        return times, values

    def search(*args, **kwargs):
        before = len(calls)
        out = find_switchings(*args, **kwargs)
        steps.append(len(calls) - before)
        return out

    find_switchings = dual.find_switchings
    monkeypatch.setattr(prob.propagator, "at", counted_at)
    monkeypatch.setattr(dual, "_cuts", counted_cuts)
    monkeypatch.setattr(dual, "find_switchings", search)
    dual.ExactEvaluator(prob).pieces(p)
    monkeypatch.undo()
    return {"screened_cells": screened, "cut_cells": cut, "refinement_steps": steps, "propagator_calls": len(calls)}


def test_crossing_search(benchmark, plant, monkeypatch):
    """The crossing search at the fixed datum, through
    ``ExactEvaluator.pieces``, as the exact evaluation and extraction call
    it.  ``extra_info`` holds one call's counts (see ``_count_search``)."""
    prob, p = plant
    counts = _count_search(monkeypatch, prob, p)
    assert counts["refinement_steps"], "the wrapped crossing search was never called"
    benchmark.extra_info.update(counts)
    benchmark(dual.ExactEvaluator(prob).pieces, p)


def criterion1_problem():
    """Criterion-1 data: oscillator, T = 4, x0 = (-1, 0.5), four-level
    ladder, 4000 nodes; its dual minimizer is the degenerate origin."""
    sys_ = lti.LtiSystem(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], x0=[-1.0, 0.5], T=4.0)
    partition = pwl.Partition(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    return dual.DualProblem(sys_, [pwl.build_penalization(pwl.quadratic_profile(), partition)])


def test_solve_discrete_primal(benchmark):
    """The N-row primal LP on criterion-1 data, the Fenchel check of its
    degenerate origin: a first solve, then the moment over its optimal
    face, which is no point there."""
    benchmark(fenchel.solve_primal, fenchel.build_discrete_primal(criterion1_problem()))


def test_extract_control_degenerate(benchmark, monkeypatch):
    """The degenerate selection at criterion 1's origin: N = 2 switch times
    by Gauss-Newton from both start orders, no LP.  ``extra_info`` records
    the switch count and the Gauss-Newton steps of each start order."""
    prob, origin = criterion1_problem(), np.zeros(2)
    steps, steer = [], extract._steer

    def counted(*args):
        out = steer(*args)
        steps.append(out[3])
        return out

    monkeypatch.setattr(extract, "_steer", counted)
    ctrl = extract.extract_control(origin, prob)
    monkeypatch.undo()
    benchmark.extra_info["switches"] = int(ctrl.channels[0].switch_times.size)
    benchmark.extra_info["gauss_newton_steps"] = steps
    benchmark(extract.extract_control, origin, prob)


def test_extract_control(benchmark, plant):
    """The staircase at the fixed datum: its crossings, the segment probes
    and the levels."""
    prob, p = plant
    benchmark(extract.extract_control, p, prob)


def test_adjoint_rows(benchmark, plant):
    """The quadrature rows in sqrt(n) blocks, the only nodes they are formed on."""
    prob, _ = plant
    A, B, T = prob.sys.A, prob.sys.B, prob.sys.T
    benchmark(lti.adjoint_rows, A, B, T, prob.grid.nodes)


def _simulate(benchmark, sys_, u, grid):
    """simulate_forward timed, with the cell count and the number of
    distinct cell widths (one exponential pair each) in ``extra_info``."""
    benchmark.extra_info["cells"] = grid.size - 1
    benchmark.extra_info["distinct_widths"] = int(np.unique(np.diff(grid)).size)
    benchmark(lti.simulate_forward, sys_, u, grid)


def test_simulate_forward(benchmark, plant):
    """The staircase at the fixed datum propagated through the quadrature
    nodes joined with its switch times, as the synthesis op checks it."""
    prob, p = plant
    ctrl = extract.extract_control(p, prob)
    switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
    _simulate(benchmark, prob.sys, ctrl, np.union1d(prob.grid.nodes, switches))


def test_simulate_forward_quadratic(benchmark):
    """The quadratic control of syn-07 (six states, two channels) at its
    closed-form minimizer, propagated through the quadrature nodes as the
    synthesis op checks it."""
    inst = workloads.synthesis_panel()[7]
    assert inst.op_id.startswith("syn-07") and inst.kind == "quadratic"
    sys_ = lti.LtiSystem(A=inst.A, B=inst.B, x0=inst.x0, T=inst.T)
    prob = dual.DualProblem(
        sys_, [], kind=inst.kind, grid=dual.QuadratureGrid.trapezoid(inst.T, workloads.GRID_NODES)
    )
    u = extract.quadratic_control(dual.minimize(prob).p_T_star, prob)
    _simulate(benchmark, sys_, u, prob.grid.nodes)


def test_scenario_output(benchmark, tmp_path):
    """osc-t4's report.json, summary.json, trajectory.csv and control.csv,
    written as ``run_scenario`` writes them; ``extra_info`` holds the table
    rows."""
    cfg = config.load_config(workloads.CONFIGS / "osc-t4.json")
    rep, traj, ctrl = experiments._run_checks(cfg)
    benchmark.extra_info["rows"] = 2 * traj.grid.size
    benchmark(experiments._emit, cfg, rep, tmp_path, traj, ctrl)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "control.csv",
        "report.json",
        "summary.json",
        "trajectory.csv",
    ]
