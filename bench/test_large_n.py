"""The large-N panel: 18 plants with 8, 12 and 16 states, each solved once.

    python -m pytest -q bench/test_large_n.py --benchmark-json out.json
    python -m pytest -q bench/test_large_n.py --benchmark-disable

One ``np.random.default_rng(PANEL_SEED)`` draws the plants with
``perfbench/workloads.synthesis_instance``, for N in (8, 12, 16), then K in
(1, 2), then each penalized kind, on 9 segments (4000 quadrature nodes, at
most 3000 steps).  Each case times one ``workloads.run_instance`` (solve,
extraction and re-simulation) and records in ``extra_info`` the solve's
status, Newton steps, line-search trials and gradient norm, and whether
``workloads.verify`` accepts the answer.  A plant that stops short of
convergence is recorded, not failed; a wrong answer fails.
"""

import numpy as np
import pytest

import workloads
from multilevel_control import dual

PANEL_SEED = 12345


def large_n_panel():
    rng = np.random.default_rng(PANEL_SEED)
    return [
        workloads.synthesis_instance(rng, f"big-n{N}k{K}-{kind}", N, K, kind, 9)
        for N in (8, 12, 16)
        for K in (1, 2)
        for kind in ("plain", "scaled", "squared")
    ]


PANEL = large_n_panel()


@pytest.mark.parametrize("inst", PANEL, ids=[inst.op_id for inst in PANEL])
def test_large_n_plant(benchmark, inst, monkeypatch):
    reports = []
    minimize = dual.minimize
    monkeypatch.setattr(dual, "minimize", lambda prob: reports.append(minimize(prob)) or reports[-1])
    answer = benchmark.pedantic(workloads.run_instance, args=(inst,), rounds=1, iterations=1)
    verified, wrong, reason = workloads.verify(inst, answer)
    rep = reports[-1]
    benchmark.extra_info.update(
        status=rep.status.value,
        newton_steps=rep.newton_steps,
        line_search_trials=rep.line_search_trials,
        grad_norm=rep.grad_norm,
        verified=verified,
        reason=reason,
    )
    assert not wrong, reason
