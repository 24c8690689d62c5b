"""Tests of the benchmark's own code: generators, checks, tracer and runner.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checkout import pin_threads, use_checkout_sources  # noqa: E402

pin_threads()
use_checkout_sources()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, workloads.Scenario):
        return a == b
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("A", "B", "x0", "T", "partition", "kind", "beta")
    ) and a.op_id == b.op_id


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generated_staircase_steers_x0_to_zero(seed):
    rng = np.random.default_rng(seed)
    for N, K, segments in [(2, 1, 5), (3, 2, 9), (6, 2, 17)]:
        A, B = workloads.random_plant(rng, N, K)
        T = 3.0
        ladder = checks.chord_slopes(np.linspace(-1, 1, segments + 1))
        channels = [workloads.random_staircase(rng, T, ladder, workloads.SYNTHESIS_REACH) for _ in range(K)]
        for _, levels in channels:
            assert checks.ladder_walk(levels, ladder) is None
            assert np.max(np.abs(levels)) <= workloads.SYNTHESIS_REACH * np.max(np.abs(ladder)) + 1e-12
        x0 = workloads.steered_x0(A, B, T, channels)
        assert np.linalg.norm(checks.zoh_terminal(A, B, x0, T, channels)) <= 1e-9


def reverse_l1_norm(A, b, T, nodes=4001):
    """Integral of ||e^{-tau A} b|| over [0, T] by composite Simpson."""
    taus = np.linspace(0.0, T, nodes)
    step = checks.zoh_step(-np.asarray(A), np.zeros((len(b), 1)), taus[1])[0]
    col = np.asarray(b, dtype=float).copy()
    vals = []
    for _ in taus:
        vals.append(np.linalg.norm(col))
        col = step @ col
    vals = np.array(vals)
    h = taus[1]
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


@pytest.mark.parametrize("seed", [0, 3])
def test_infeasible_instances_violate_the_norm_bound(seed):
    rng = np.random.default_rng(seed)
    for i in range(4):
        inst = workloads.infeasible_instance(rng, f"inf-{i}", 2 + i % 2)
        sigma_bar = np.max(np.abs(checks.chord_slopes(inst.partition)))
        x0_norm = np.linalg.norm(inst.x0)
        assert inst.T <= 1.0 and inst.truth == "diverged"
        assert x0_norm > 1.1 * sigma_bar * checks.reverse_l2_norm(inst.A, inst.B, inst.T)
        # the bound that holds for any horizon: ||x0|| <= sigma_bar * int ||e^{-tau A} b||
        assert x0_norm > 1.1 * sigma_bar * reverse_l1_norm(inst.A, inst.B[:, 0], inst.T)


def test_gramian_matches_quadrature():
    rng = np.random.default_rng(5)
    A, B = workloads.random_plant(rng, 3, 2)
    T = 1.7
    s = np.linspace(0.0, T, 20001)
    step = checks.zoh_step(A, np.zeros((3, 1)), s[1])[0]
    E = np.eye(3)
    vals = []
    for _ in s:
        vals.append(E @ B @ B.T @ E.T)
        E = step @ E
    quad = np.trapezoid(np.array(vals), s, axis=0)
    assert np.allclose(checks.gramian(A, B, T), quad, rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_instances(workload):
    a, b = workloads.cases(workload, 11), workloads.cases(workload, 11)
    assert len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if workload != "suite":
        c = workloads.cases(workload, 12)
        assert not all(_same(x, y) for x, y in zip(a, c))


def test_self_time_on_nested_spans():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 6]
    spans = [
        (0, -1, "root", 0.0, 10.0, "op"),
        (1, 0, "mid", 1.0, 4.0, "op"),
        (2, 1, "leaf", 2.0, 3.0, "op"),
        (3, 0, "leaf", 5.0, 6.0, "op"),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"root": 6.0, "mid": 2.0, "leaf": 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores():
    tr = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = tr.wrap(leaf, "leaf", "leaf_calls")
    traced_root = tr.wrap(lambda: traced_leaf() + traced_leaf(), "root")
    assert traced_root() == 2
    (leaf1, leaf2, root) = sorted(tr.spans, key=lambda s: s[2] == "root")
    assert leaf1[1] == root[0] and leaf2[1] == root[0] and root[1] == -1
    assert tr.counts["leaf_calls"] == 2

    from multilevel_control import dual, experiments, extract, lti

    originals = (dual.minimize, experiments.minimize, extract.find_switchings, lti.sla, dual.DualProblem.__init__)
    tr.install()
    assert dual.minimize is not originals[0] and experiments.minimize is dual.minimize
    tr.uninstall()
    assert (dual.minimize, experiments.minimize, extract.find_switchings, lti.sla, dual.DualProblem.__init__) == originals


def test_traced_op_counts_layers():
    inst = workloads.Instance(
        "scalar", np.array([[1.0]]), np.array([[1.0]]), np.array([1.5]), 1.0, (-1.0, 0.0, 1.0), "plain", "diverged",
        nodes=400,
    )
    tr = tracing.Tracer().install()
    try:
        mark = tr.mark()
        _, answer = workloads.execute(inst)
        layers = tr.layer_metrics(mark)
    finally:
        tr.uninstall()
    assert answer["status"] == "diverged"
    assert layers["lti.adjoint_rows_nodes"] == 400
    assert layers["lti.expm_calls"] >= 3
    assert layers["dual.iterations"] > 0 and layers["dual.value_evals"] > layers["dual.iterations"] / 2
    assert 0 < layers["dual.step_accept_ratio"] <= 1


def _known_staircase_case():
    rng = np.random.default_rng(3)
    A, B = workloads.random_plant(rng, 2, 1)
    partition = tuple(np.linspace(-1, 1, 6).tolist())
    ladder = checks.chord_slopes(partition)
    times, levels = np.array([0.7, 1.5]), np.array([0.0, 0.8, 0.0])
    x0 = workloads.steered_x0(A, B, 2.5, [(times, levels)])
    inst = workloads.Instance("known", A, B, x0, 2.5, partition, "plain", "staircase")
    good = {"status": "converged", "scale": 1.0, "channels": [(times, levels)]}
    return inst, good, ladder


def test_a_wrong_answer_is_a_failure():
    inst, good, _ = _known_staircase_case()
    assert workloads.verify(inst, good) == (True, False, "")
    shifted = {**good, "channels": [(good["channels"][0][0] + 0.2, good["channels"][0][1])]}
    skipped = {**good, "channels": [(good["channels"][0][0], np.array([0.0, 1.6, 0.0]))]}
    off_ladder = {**good, "channels": [(good["channels"][0][0], np.array([0.0, 0.7, 0.0]))]}
    for bad in (shifted, skipped, off_ladder, {"status": "diverged"}):
        verified, wrong, reason = workloads.verify(inst, bad)
        assert not verified and wrong and reason
    assert workloads.verify(inst, {"status": "raised", "error": "DegenerateAdjointError"}) == (
        False, False, "DegenerateAdjointError"
    )


def test_runner_counts_a_wrong_answer(monkeypatch):
    inst, good, _ = _known_staircase_case()
    wrong = {**good, "channels": [(good["channels"][0][0] + 0.2, good["channels"][0][1])]}
    answers = iter([(0.01, good), (0.01, wrong)] * 2)
    monkeypatch.setattr(workloads, "execute", lambda case: next(answers))
    records, passes = run.run_passes([inst, inst], 2, None)
    assert [r["verified"] for r in records] == [True, False] * 2
    assert [r["wrong"] for r in records] == [False, True] * 2
    assert len(passes) == 2 and passes[0]["seconds"] == pytest.approx(0.02)


def test_pass_count_follows_seconds():
    assert run.pass_count("suite", 45) == 9
    assert run.pass_count("synthesis", 45) == 2
    assert run.pass_count("certify", 1) == 2


def test_tail_percentile_keeps_ten_ops_beyond():
    q, value, beyond = run.tail(np.arange(100.0)[::-1])
    assert (q, value, beyond) == (90.0, 89.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
