"""Scenario execution: solve, extract, simulate, check, and emit results.

Each scenario writes into its own directory: ``report.json`` (full record),
``control.csv`` and ``trajectory.csv`` (17-significant-digit tables) and
``summary.json`` (the record's pass/fail keys).  Exit codes: 0 pass, 2 checks
failed, 3 solver diverged unexpectedly, 4 configuration error.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .dual import (
    DualProblem,
    FunctionalKind,
    SolveStatus,
    eval_functional,
    minimize,
)
from .extract import (
    DegenerateAdjointError,
    MultilevelControl,
    extract_control,
    quadratic_control,
    verify_staircase,
)
from .fenchel import InfeasiblePrimalError, build_discrete_primal, duality_gap, optimality_fraction, solve_primal
from .lti import simulate_forward
from .pwl import Partition, interp_error_bound, quadratic_profile
from .solvable import solvable_bound

__all__ = [
    "ExperimentReport",
    "build_problem",
    "run_scenario",
    "convergence_study",
    "write_csv",
]

EXIT_PASS = 0
EXIT_CHECKS_FAILED = 2
EXIT_DIVERGED = 3
EXIT_CONFIG_ERROR = 4

# The largest relative L2(w) distance between the primal LP's node controls
# and the extracted staircase that the Fenchel check accepts as agreement.
FENCHEL_AGREEMENT_TOL = 0.05


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` (a 2-D array or any iterable of rows) under ``header``
    with one ``%`` per row: ``%.17g`` per number, ``%s`` for a ``status``.
    An array is formatted as Python floats, which ``%`` reads faster than
    NumPy scalars, to the same bytes.  It is read by column: a list per
    row, all alive until the table is written, set off a dozen garbage
    collections per trajectory table and, through their survivors, a full
    collection every few scenario runs."""
    fmt = ",".join("%s" if name == "status" else "%.17g" for name in header)
    if isinstance(rows, np.ndarray):
        rows = zip(*rows.T.tolist())
    path.write_text("\n".join([",".join(header), *(fmt % tuple(row) for row in rows)]) + "\n")


@dataclass
class ExperimentReport:
    name: str
    status: str
    checks: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)
    control: Optional[dict] = None
    terminal_norm: Optional[float] = None
    staircase_ok: Optional[bool] = None
    staircase_violation: Optional[dict] = None
    gap: Optional[dict] = None
    solvable: Optional[dict] = None
    timings: dict = field(default_factory=dict)
    message: str = ""

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) if self.checks else False

    @property
    def exit_code(self) -> int:
        if self.status == "diverged" and not self.checks.get("divergence_expected", False):
            return EXIT_DIVERGED
        return EXIT_PASS if self.passed else EXIT_CHECKS_FAILED

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "exit_code": self.exit_code}


def build_problem(cfg: ExperimentConfig) -> DualProblem:
    return DualProblem(
        sys=cfg.system,
        penalizations=cfg.penalizations() if cfg.kind.penalized else [],
        kind=cfg.kind,
        beta=cfg.beta,
        grid=cfg.quadrature(),
        settings=cfg.optimizer,
    )


def simulation_grid(nodes, control: Optional[MultilevelControl]) -> np.ndarray:
    """The quadrature nodes joined with the control's switch times."""
    if control is None:
        return nodes
    switches = np.concatenate([ch.switch_times for ch in control.channels]) if control.channels else np.empty(0)
    return np.union1d(nodes, switches)


def run_scenario(cfg: ExperimentConfig, out_dir: Path | str | None = None) -> ExperimentReport:
    """Execute one scenario: minimize, extract, simulate, verify, then emit
    into ``out_dir`` what the run reached, wherever it stopped."""
    rep, trajectory, control = _run_checks(cfg)
    _emit(cfg, rep, out_dir, trajectory, control)
    return rep


def _run_checks(cfg: ExperimentConfig):
    """The report of one scenario, its trajectory and its staircase, each of
    the latter None where the run stopped before it or has none."""
    timings = {}
    t0 = time.perf_counter()
    prob = build_problem(cfg)
    timings["setup_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solve = minimize(prob)
    timings["solve_s"] = time.perf_counter() - t0

    rep = ExperimentReport(
        name=cfg.name,
        status=solve.status.value,
        solve={
            "status": solve.status.value,
            "value": solve.value,
            "iterations": solve.iterations,
            "newton_steps": solve.newton_steps,
            "line_search_halvings": solve.line_search_halvings,
            "line_search_trials": solve.line_search_trials,
            "grad_norm": solve.grad_norm,
            "message": solve.message,
        },
        timings=timings,
    )

    if solve.status == SolveStatus.DIVERGED:
        rep.checks["divergence_expected"] = cfg.checks.expect_divergence
        rep.message = solve.message
        return rep, None, None
    if cfg.checks.expect_divergence:
        rep.checks["divergence_expected"] = False
        rep.message = "scenario expected divergence but the solver did not diverge"
        return rep, None, None
    if solve.status != SolveStatus.CONVERGED:
        rep.checks["converged"] = False
        rep.message = solve.message or "no convergence within the iteration budget"
        return rep, None, None
    rep.checks["converged"] = True

    control = None
    t0 = time.perf_counter()
    if cfg.kind.penalized:
        try:
            control = extract_control(solve.p_T_star, prob)
        except DegenerateAdjointError as exc:
            rep.status = "degenerate"
            rep.checks["extraction"] = False
            rep.message = str(exc)
            return rep, None, None
        rep.checks["extraction"] = True
        rep.control = control.to_record()
        u_fun = control
    else:
        u_fun = quadratic_control(solve.p_T_star, prob)
    timings["extract_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid = simulation_grid(prob.grid.nodes, control)
    traj = simulate_forward(cfg.system, u_fun, grid)
    timings["simulate_s"] = time.perf_counter() - t0
    rep.terminal_norm = traj.terminal_norm
    rep.checks["terminal"] = bool(traj.terminal_norm <= cfg.checks.terminal_tol)

    if control is not None and cfg.checks.staircase:
        for ci, ch in enumerate(control.channels):
            ok, vio = verify_staircase(replace(control, channels=(ch,)), ch.level_set)
            if not ok:
                rep.staircase_violation = dict(vio, channel=ci)
                break
        rep.staircase_ok = rep.staircase_violation is None
        rep.checks["staircase"] = rep.staircase_ok

    if cfg.checks.fenchel and cfg.kind == FunctionalKind.PLAIN:
        t0 = time.perf_counter()
        try:
            v = solve_primal(build_discrete_primal(prob)).v
            gap = duality_gap(v, solve.p_T_star, prob)
            rel = abs(gap.gap) / (1.0 + abs(gap.primal_value))
            rep.gap = {
                "gap": gap.gap,
                "primal_value": gap.primal_value,
                "dual_value": gap.dual_value,
                "relative": rel,
                "optimality_fraction": optimality_fraction(v, solve.p_T_star, prob),
            }
            rep.checks["fenchel_gap"] = bool(rel <= cfg.checks.fenchel_gap_rtol)
            if control is not None:
                w = prob.grid.weights
                dist2 = 0.0
                norm2 = 0.0
                for ch_i, ch in enumerate(control.channels):
                    uml = ch(prob.grid.nodes)
                    dist2 += float(w @ (v[:, ch_i] - uml) ** 2)
                    norm2 += float(w @ uml**2)
                agreement = float(np.sqrt(dist2) / max(np.sqrt(norm2), 1e-300))
                rep.gap["control_agreement"] = agreement
                rep.checks["fenchel_agreement"] = bool(agreement <= FENCHEL_AGREEMENT_TOL)
        except InfeasiblePrimalError as exc:
            rep.gap = {"infeasible": str(exc)}
            rep.checks["fenchel_gap"] = False
        timings["fenchel_s"] = time.perf_counter() - t0

    if cfg.checks.solvable and cfg.system.channels == 1 and cfg.kind.penalized:
        scale = control.scale if control is not None else 1.0
        sb = solvable_bound(cfg.system, prob.penalizations[0], scale=scale)
        rep.solvable = sb.to_dict()
        rep.checks["solvable_bound"] = sb.passes

    return rep, traj, control


def _emit(cfg, rep, out_dir, trajectory, control) -> None:
    """Write into ``out_dir``, if any, the record with its config
    (``report.json``), six of its keys (``summary.json``) and the tables of
    the trajectory and staircase the run reached."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = {**rep.to_dict(), "config": cfg.raw}
    summary = {key: record[key] for key in ("name", "status", "passed", "exit_code", "checks", "terminal_norm")}
    for name, content in (("report.json", record), ("summary.json", summary)):
        (out / name).write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
    if trajectory is not None:
        grid = trajectory.grid
        header = ["t"] + [f"x{i+1}" for i in range(trajectory.states.shape[1])]
        write_csv(out / "trajectory.csv", header, np.column_stack([grid, trajectory.states]))
        if control is not None:
            header = ["t"] + [f"u{i+1}" for i in range(control.num_channels)]
            write_csv(out / "control.csv", header, np.column_stack([grid, control(grid)]))


def convergence_study(cfg: ExperimentConfig, sizes, out_dir: Path | str | None = None) -> list[dict]:
    """Refine the level ladder and measure the distance to the quadratic-cost
    control.

    For each segment count M the staircase control of the plain functional
    on the uniform M-segment partition (same interval as the configured
    partition) is compared in discrete L^2 against the quadratic-kind
    control; the rows also record the number of distinct levels used and a
    check of the interpolation-error bound |penalized - quadratic| <= bound*T
    at 10 random adjoint data kept inside the interval.
    """
    if not cfg.kind.penalized:
        raise ValueError("the convergence study starts from a penalized configuration")
    if cfg.system.channels != 1:
        raise ValueError("the convergence study is single-channel")
    lo, hi = cfg.partitions[0][0], cfg.partitions[0][-1]

    quad_prob = build_problem(replace(cfg, kind=FunctionalKind.QUADRATIC))
    quad_solve = minimize(quad_prob)
    if quad_solve.status != SolveStatus.CONVERGED:
        raise RuntimeError("quadratic reference solve did not converge")
    u2_nodes = quadratic_control(quad_solve.p_T_star, quad_prob)(quad_prob.grid.nodes)[:, 0]

    rng = np.random.default_rng(cfg.seed)
    rows = []
    for M in sizes:
        part = Partition.uniform(lo, hi, int(M))
        prob = build_problem(
            replace(
                cfg,
                kind=FunctionalKind.PLAIN,
                partitions=(tuple(part.points.tolist()),),
                allow_offgrid_minimum=True,
            )
        )
        solve = minimize(prob)
        row = {"segments": int(M), "status": solve.status.value}
        if solve.status == SolveStatus.CONVERGED:
            try:
                ctrl = extract_control(solve.p_T_star, prob)
                uml = ctrl.channels[0](prob.grid.nodes)
                w = prob.grid.weights
                row["l2_distance"] = float(np.sqrt(w @ (uml - u2_nodes) ** 2))
                row["levels_used"] = int(np.unique(ctrl.channels[0].levels).size)
                row["switches"] = int(ctrl.channels[0].switch_times.size)
            except DegenerateAdjointError as exc:
                row["status"] = "degenerate"
                row["message"] = str(exc)
        # interpolation-error bound check at random adjoint data
        _, bound = interp_error_bound(quadratic_profile(), part)
        ok = True
        for _ in range(10):
            p = rng.standard_normal(cfg.system.dim)
            q = prob.adjoint_observations(p)
            amax = float(np.max(np.abs(q)))
            if amax > 0:
                p = p * (0.99 * min(abs(lo), abs(hi)) / amax)
            diff = abs(eval_functional(prob, p) - eval_functional(quad_prob, p))
            if diff > bound * cfg.system.T + 1e-9:
                ok = False
        row["bound_ok"] = ok
        rows.append(row)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = ["segments", "status", "l2_distance", "levels_used", "switches", "bound_ok"]
        write_csv(
            out / "convergence.csv",
            header,
            (
                [
                    r.get("segments"),
                    r.get("status"),
                    r.get("l2_distance", float("nan")),
                    r.get("levels_used", 0),
                    r.get("switches", 0),
                    int(r.get("bound_ok", False)),
                ]
                for r in rows
            ),
        )
    return rows
