"""The benchmark's three workloads.

Each workload is a list of cases made from a seed.  One op runs one case
from its raw inputs to the program's answer; ``verify`` then compares that
answer with the generator's ground truth using only ``checks``.

* ``suite``      the shipped ``configs/*.json`` through ``run_scenario`` with
                 report and CSV output, as ``mlctl suite configs/`` runs them
* ``synthesis``  random plants that are feasible by construction, solved in
                 memory: ``minimize`` -> ``extract_control`` -> ``simulate_forward``
* ``certify``    instances whose answer is a divergence certificate or a
                 staircase at a degenerate dual minimizer
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

import checks
from checkout import CONFIGS, OUT
from multilevel_control import config, dual, experiments, extract, lti, pwl

WORKLOADS = ("suite", "synthesis", "certify")

GRID_NODES = 4000
BRACKET_MULTIPLIER = 8
# A fixed descent budget for the random plants, the same on every commit: a
# stalled descent ends here and counts as a failed op.  At the default cap of
# 50 000 a stalled six-state plant takes minutes.
SYNTHESIS_MAX_ITERATIONS = 3000
# the random staircase behind x0 stays within this share of the level range
SYNTHESIS_REACH = 0.6
# The plants come from one fixed panel seed and --seed only orders them.
# About 40 % of random plants stall, and an op costs 0.2-7 s, so with plants
# drawn from --seed the goodput of 16-op passes ranged 0.29-0.38 /s over
# four seeds: wider than any bound the benchmark can hold.
SYNTHESIS_PANEL_SEED = 210902346
# per pass: every (N, K) cell once and the single-input cells twice; kinds
# and ladders are spread over the cells
SYNTHESIS_CELLS = [(N, K) for N in (2, 3, 4, 6) for K in (1, 2)] + [(N, 1) for N in (2, 3, 4, 6)]
SYNTHESIS_KINDS = ("plain",) * 4 + ("scaled",) * 3 + ("squared",) * 3 + ("quadratic",) * 2
SYNTHESIS_SEGMENTS = (5, 9, 17)
FOUR_LEVEL = (-1.0, -0.5, 0.0, 0.5, 1.0)  # slopes -1.5, -0.5, 0.5, 1.5
FIVE_LEVEL = tuple(np.linspace(-1.0, 1.0, 6).tolist())  # slopes -1.6 .. 1.6 with 0
# certify: the degenerate controls stay below the inner slopes +-0.5
DEGENERATE_AMPLITUDE = 0.4
# random instances per pass; the degenerate ones outnumber the rest, so that
# the median op lies inside their cluster rather than on the gap between
# the two clusters' latencies
CERTIFY_INFEASIBLE = 8
CERTIFY_DEGENERATE = 16
SETUP_SEED = 20210906


@dataclass(frozen=True)
class Instance:
    """An in-memory problem: plant, ladder partition (the chords of u^2, one
    per channel), functional kind and the true outcome."""

    op_id: str
    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    T: float
    partition: tuple
    kind: str
    truth: str  # "staircase" or "diverged"
    beta: float = 1.0
    nodes: int = GRID_NODES
    max_iterations: int = dual.OptimizerSettings().max_iterations


@dataclass(frozen=True)
class Scenario:
    """A shipped config file; its JSON is read here independently of the
    program's parser for the verification."""

    op_id: str
    path: Path
    raw: dict

    @property
    def truth(self) -> str:
        return "diverged" if self.raw.get("checks", {}).get("expect_divergence") else "staircase"


# -- generators ---------------------------------------------------------------


def random_plant(rng, N: int, K: int):
    """A = Q (skew blocks) Q^T - damping: rotation frequencies in [0.5, 2],
    damping in [0.05, 0.3], so A is nonsingular; (A, B) controllable."""
    while True:
        S = np.zeros((N, N))
        for i in range(0, N - 1, 2):
            w = rng.uniform(0.5, 2.0)
            S[i, i + 1], S[i + 1, i] = w, -w
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        A = Q @ S @ Q.T - rng.uniform(0.05, 0.3) * np.eye(N)
        B = rng.standard_normal((N, K))
        ctrb = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(N)])
        if np.linalg.matrix_rank(ctrb, tol=1e-8 * np.linalg.norm(ctrb, 2)) == N:
            return A, B


def random_staircase(rng, T: float, ladder, reach: float):
    """(switch times, levels): a walk between adjacent ladder levels whose
    magnitude stays within ``reach`` of the largest level."""
    ladder = np.asarray(ladder, dtype=float)
    allowed = np.nonzero(np.abs(ladder) <= reach * np.max(np.abs(ladder)) + 1e-12)[0]
    n_switch = int(rng.integers(2, 7))
    times = np.sort(rng.uniform(0.05 * T, 0.95 * T, n_switch))
    j = int(rng.choice(allowed))
    idx = [j]
    for _ in range(n_switch):
        j += int(rng.choice([d for d in (-1, 1) if j + d in allowed]))
        idx.append(j)
    return times, ladder[idx]


def steered_x0(A, B, T: float, channels) -> np.ndarray:
    """The x0 that ``channels`` steers exactly to 0 at T: -e^{-TA} x_T(u)."""
    x_T = checks.zoh_terminal(A, B, np.zeros(A.shape[0]), T, channels)
    return -sla.expm(-T * A) @ x_T


def synthesis_instance(rng, op_id: str, N: int, K: int, kind: str, segments: int) -> Instance:
    A, B = random_plant(rng, N, K)
    T = float(rng.uniform(2.0, 4.0))
    partition = tuple(np.linspace(-1.0, 1.0, segments + 1).tolist())
    beta = float(rng.choice([2.0, 3.0])) if kind == "scaled" else 1.0
    ladder = (beta if kind == "scaled" else 1.0) * checks.chord_slopes(partition)
    channels = [random_staircase(rng, T, ladder, SYNTHESIS_REACH) for _ in range(K)]
    return Instance(
        op_id=op_id,
        A=A,
        B=B,
        x0=steered_x0(A, B, T, channels),
        T=T,
        partition=partition,
        kind=kind,
        truth="staircase",
        beta=beta,
        max_iterations=SYNTHESIS_MAX_ITERATIONS,
    )


def synthesis_panel() -> list[Instance]:
    rng = np.random.default_rng(SYNTHESIS_PANEL_SEED)
    kinds = rng.permutation(SYNTHESIS_KINDS)
    segments = rng.permutation([SYNTHESIS_SEGMENTS[i % 3] for i in range(len(SYNTHESIS_CELLS))])
    return [
        synthesis_instance(rng, f"syn-{i:02d}-n{N}k{K}-{kind}-m{M}", N, K, str(kind), int(M))
        for i, ((N, K), kind, M) in enumerate(zip(SYNTHESIS_CELLS, kinds, segments))
    ]


def synthesis_cases(seed: int) -> list[Instance]:
    panel = synthesis_panel()
    return [panel[i] for i in np.random.default_rng([seed, 1]).permutation(len(panel))]


def infeasible_instance(rng, op_id: str, N: int) -> Instance:
    """||x0|| above sigma_bar * ||e^{-tau A} B||_{L2} by 20-60 %.  With
    T <= 1 that norm bounds sigma_bar * int ||e^{-tau A} B|| from above, so
    no control with |u| <= sigma_bar reaches 0: the truth is divergence."""
    A, B = random_plant(rng, N, 1)
    T = float(rng.uniform(0.5, 1.0))
    partition = FOUR_LEVEL if rng.random() < 0.5 else FIVE_LEVEL
    sigma_bar = float(np.max(np.abs(checks.chord_slopes(partition))))
    bound = sigma_bar * checks.reverse_l2_norm(A, B, T)
    direction = rng.standard_normal(N)
    x0 = direction / np.linalg.norm(direction) * bound * rng.uniform(1.2, 1.6)
    return Instance(op_id, A, B, x0, T, partition, "plain", "diverged")


def degenerate_instance(rng, op_id: str, N: int) -> Instance:
    """x0 reachable with |u| <= 0.4 on the four-level ladder: the dual
    minimizer is the origin, and a staircase between -0.5 and 0.5 steers x0
    by the bang-bang principle."""
    A, B = random_plant(rng, N, 1)
    T = float(rng.uniform(2.0, 4.0))
    cuts = int(rng.integers(2, 6))
    times = np.sort(rng.uniform(0.05 * T, 0.95 * T, cuts))
    values = rng.uniform(-DEGENERATE_AMPLITUDE, DEGENERATE_AMPLITUDE, cuts + 1)
    return Instance(op_id, A, B, steered_x0(A, B, T, [(times, values)]), T, FOUR_LEVEL, "plain", "staircase")


def acceptance_instances() -> list[Instance]:
    """The fixed data of acceptance criteria 1, 2 (legs 1 and 3) and 3, and
    the double integrator pinned on a kink."""
    A_osc = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B_osc = np.array([[0.0], [1.0]])
    x0 = np.array([-1.0, 0.5])
    scalar = (np.array([[1.0]]), np.array([[1.0]]))
    return [
        Instance("acc-c1-four-level-t4", A_osc, B_osc, x0, 4.0, FOUR_LEVEL, "plain", "staircase"),
        Instance("acc-c2-leg1-t05", A_osc, B_osc, x0, 0.5, FOUR_LEVEL, "plain", "diverged"),
        Instance(
            "acc-c2-leg3-t05-small", A_osc, B_osc, np.array([-0.25, 0.25]), 0.5, FOUR_LEVEL, "plain", "diverged"
        ),
        Instance("acc-c3-scalar-big", *scalar, np.array([1.5]), 1.0, (-1.0, 0.0, 1.0), "plain", "diverged"),
        Instance(
            "acc-c3-scalar-small",
            *scalar,
            np.array([0.5 * (1.0 - np.exp(-1.0))]),
            1.0,
            (-1.0, 0.0, 1.0),
            "plain",
            "staircase",
        ),
        Instance(
            "acc-double-integrator",
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            B_osc,
            np.array([0.4, -0.3]),
            3.0,
            FIVE_LEVEL,
            "plain",
            "staircase",
            nodes=2000,
        ),
    ]


def certify_cases(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    cases = acceptance_instances()
    for i in range(CERTIFY_INFEASIBLE):
        cases.append(infeasible_instance(rng, f"inf-{i:02d}-n{2 + i % 2}", 2 + i % 2))
    for i in range(CERTIFY_DEGENERATE):
        cases.append(degenerate_instance(rng, f"deg-{i:02d}-n{2 + i % 2}", 2 + i % 2))
    return [cases[i] for i in rng.permutation(len(cases))]


def suite_cases(seed: int) -> list[Scenario]:
    paths = sorted(CONFIGS.glob("*.json"))
    order = np.random.default_rng([seed, 0]).permutation(len(paths))
    return [Scenario(f"suite-{paths[i].stem}", paths[i], json.loads(paths[i].read_text())) for i in order]


def cases(workload: str, seed: int) -> list:
    if workload == "suite":
        return suite_cases(seed)
    if workload == "synthesis":
        return synthesis_cases(seed)
    if workload == "certify":
        return certify_cases(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_case(workload: str):
    """A fixed case per workload, the same for every seed."""
    if workload == "suite":
        path = CONFIGS / "osc-t4-two-channel.json"
        return Scenario("warmup", path, json.loads(path.read_text()))
    if workload == "synthesis":
        return synthesis_instance(np.random.default_rng(SETUP_SEED), "warmup", 2, 1, "plain", 5)
    return acceptance_instances()[1]


# -- one op -----------------------------------------------------------------------


def _penalization(partition):
    prof = pwl.quadratic_profile()
    relaxed = pwl.ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return pwl.build_penalization(relaxed, pwl.Partition(np.asarray(partition, dtype=float)))


def run_instance(inst: Instance) -> dict:
    system = lti.LtiSystem(A=inst.A, B=inst.B, x0=inst.x0, T=inst.T)
    penalized = inst.kind != "quadratic"
    prob = dual.DualProblem(
        system,
        [_penalization(inst.partition) for _ in range(system.channels)] if penalized else [],
        kind=inst.kind,
        beta=inst.beta,
        grid=dual.QuadratureGrid.trapezoid(inst.T, inst.nodes),
        settings=dual.OptimizerSettings(
            max_iterations=inst.max_iterations, bracket_multiplier=BRACKET_MULTIPLIER
        ),
    )
    rep = dual.minimize(prob)
    answer = {"status": rep.status.value}
    if rep.status is not dual.SolveStatus.CONVERGED:
        return answer
    if penalized:
        ctrl = extract.extract_control(rep.p_T_star, prob)
        switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
        traj = lti.simulate_forward(system, ctrl, np.union1d(prob.grid.nodes, switches))
        answer["scale"] = ctrl.scale
        answer["channels"] = [(ch.switch_times, ch.levels) for ch in ctrl.channels]
    else:
        traj = lti.simulate_forward(system, extract.quadratic_control(rep.p_T_star, prob), prob.grid.nodes)
        answer["p_T"] = rep.p_T_star
    answer["terminal_norm"] = traj.terminal_norm
    return answer


def run_scenario_case(sc: Scenario, out_dir: Path) -> dict:
    rep = experiments.run_scenario(config.load_config(sc.path), out_dir)
    answer = {"status": rep.status, "passed": rep.passed}
    if rep.control is not None:
        answer["scale"] = rep.control["scale"]
        answer["channels"] = [(np.asarray(c["switch_times"]), np.asarray(c["levels"])) for c in rep.control["channels"]]
    return answer


def execute(case) -> tuple[float, dict]:
    """Run one op and return (latency in seconds, answer).

    The timed region is the op alone.  A scenario writes into a fresh
    directory that is hashed into the answer and removed after the timing.
    An exception ends the op with its class name as the answer.
    """
    out_dir = None
    if isinstance(case, Scenario):
        OUT.mkdir(parents=True, exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="scenario-", dir=OUT))
    start = time.perf_counter()
    try:
        answer = run_instance(case) if out_dir is None else run_scenario_case(case, out_dir)
    except Exception as exc:  # the op fails; the benchmark goes on
        answer = {"status": "raised", "error": type(exc).__name__}
    latency = time.perf_counter() - start
    if out_dir is not None:
        answer["csv"] = {p.name: checks.file_sha256(p) for p in sorted(out_dir.glob("*.csv"))}
        shutil.rmtree(out_dir, ignore_errors=True)
    return latency, answer


# -- verification -----------------------------------------------------------------


def _expected_scale(kind: str, beta: float):
    """The level scale the kind implies; None for the squared kind, whose
    scale is the penalized integral at the optimum."""
    if kind == "plain":
        return 1.0
    if kind == "scaled":
        return beta
    return None


def _check_staircase(A, B, x0, T, slope_sets, kind, beta, answer, tol) -> str | None:
    scale = _expected_scale(kind, beta)
    if scale is not None and abs(answer["scale"] - scale) > 1e-12 * scale:
        return f"level scale {answer['scale']!r}, expected {scale!r}"
    scale = answer["scale"]
    for ch, ((_, levels), slopes) in enumerate(zip(answer["channels"], slope_sets)):
        bad = checks.ladder_walk(levels, scale * np.asarray(slopes))
        if bad:
            return f"channel {ch}: {bad}"
    terminal = float(np.linalg.norm(checks.zoh_terminal(A, B, x0, T, answer["channels"])))
    if not terminal <= tol:
        return f"re-simulated terminal norm {terminal:.3g} > {tol:g}"
    return None


def _check_instance(inst: Instance, answer: dict) -> str | None:
    if inst.kind == "quadratic":
        terminal = float(np.linalg.norm(checks.quadratic_terminal(inst.A, inst.B, inst.x0, inst.T, answer["p_T"])))
        return None if terminal <= checks.TERMINAL_TOL else f"exact terminal norm {terminal:.3g}"
    slopes = [checks.chord_slopes(inst.partition)] * inst.B.shape[1]
    return _check_staircase(
        inst.A, inst.B, inst.x0, inst.T, slopes, inst.kind, inst.beta, answer, checks.TERMINAL_TOL
    )


def _check_scenario(sc: Scenario, answer: dict) -> str | None:
    if not answer["passed"]:
        return "the scenario's own checks failed"
    if "channels" not in answer:
        return "no staircase in the report"
    s = sc.raw["system"]
    return _check_staircase(
        np.asarray(s["A"], dtype=float),
        np.asarray(s["B"], dtype=float),
        np.asarray(s["x0"], dtype=float),
        float(s["T"]),
        [checks.chord_slopes(p) for p in sc.raw["penalization"]["partitions"]],
        sc.raw.get("kind", "plain"),
        float(sc.raw.get("beta", 1.0)),
        answer,
        float(sc.raw.get("checks", {}).get("terminal_tol", checks.TERMINAL_TOL)),
    )


def verify(case, answer: dict) -> tuple[bool, bool, str]:
    """(verified, wrong, reason).

    An op that raised or stopped at the iteration cap has no answer: it is
    not verified but not wrong either.  A definite answer (a staircase, or
    a divergence verdict) that contradicts the ground truth is wrong.
    """
    status = answer["status"]
    if "error" in answer:
        return False, False, answer["error"]
    if case.truth == "diverged":
        if status == "diverged":
            return True, False, ""
        return False, status == "converged", f"status {status}, expected diverged"
    if status == "diverged":
        return False, True, "diverged on a feasible instance"
    if status != "converged":
        return False, False, f"status {status}"
    bad = _check_instance(case, answer) if isinstance(case, Instance) else _check_scenario(case, answer)
    return (bad is None), (bad is not None), bad or ""


def digest_line(case, answer: dict) -> str:
    """Levels and switch times rounded to 1e-12, plus scenario CSV hashes."""
    parts = [case.op_id, answer["status"], answer.get("error", "")]
    for times, levels in answer.get("channels", []):
        parts.append(" ".join(checks.fmt_rounded(v) for v in levels))
        parts.append(" ".join(checks.fmt_rounded(t) for t in times))
    for name, sha in sorted(answer.get("csv", {}).items()):
        parts.append(f"{name}={sha}")
    return " | ".join(parts)
