"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scenario shorthand used below:

* "four-level ladder": chord interpolation of u^2 on {-1, -0.5, 0, 0.5, 1},
  slopes {-1.5, -0.5, 0.5, 1.5} (the penalization vanishes at 0, which sits
  on a kink).
* "five-level ladder": chord interpolation of u^2 on the 6-point uniform
  partition of [-1, 1], slopes {-1.6, -0.8, 0, 0.8, 1.6} (flat middle
  segment, zero level available).

A structural feature the suite exercises: for the four-level ladder on the
long oscillator horizon, the state e^{TA} x0 is reachable with controls
bounded by the inner slopes (+-0.5), so the dual functional's unique
minimizer is the origin and the optimal controls are the selections of
[-0.5, 0.5].  A staircase on that pair with N switches steers x0 there;
extraction places its switch times by Gauss-Newton on the exact terminal
map (criteria 1, 3, 4, 5 and 9 reach that degenerate origin).  Criterion 2,
leg 3, is infeasible: its target lies outside the set reachable with
|u| <= 1.5 on the short horizon, so no ladder control exists.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance
from multilevel_control import (
    ConvexProfile,
    DegenerateAdjointError,
    DualProblem,
    LtiSystem,
    Partition,
    QuadratureGrid,
    SolveStatus,
    build_discrete_primal,
    build_penalization,
    conjugate,
    duality_gap,
    eval_functional,
    eval_subgradient,
    extract_control,
    interp_error_bound,
    mat_exp,
    minimize,
    optimality_fraction,
    quadratic_profile,
    simulate_forward,
    slopes,
    solvable_bound,
    solve_primal,
    subdifferential,
    verify_staircase,
)
from multilevel_control.config import load_config
from multilevel_control.experiments import convergence_study

A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
B_OSC = np.array([[0.0], [1.0]])
X0 = np.array([-1.0, 0.5])
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def four_level_ladder():
    return build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))


def five_level_ladder():
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.linspace(-1, 1, 6)))


def oscillator(T=4.0, x0=X0, B=B_OSC):
    return LtiSystem(A=A_OSC, B=B, x0=x0, T=T)


def solve_extract_simulate(prob):
    """(report, control, terminal norm); terminal norm is inf when the
    solve or the extraction does not produce a control."""
    rep = minimize(prob)
    if rep.status is not SolveStatus.CONVERGED:
        return rep, None, np.inf
    try:
        ctrl = extract_control(rep.p_T_star, prob)
    except DegenerateAdjointError:
        return rep, None, np.inf
    switches = np.concatenate([ch.switch_times for ch in ctrl.channels])
    grid = np.union1d(prob.grid.nodes, switches)
    traj = simulate_forward(prob.sys, ctrl, grid)
    return rep, ctrl, traj.terminal_norm


def finish(num: int, label: str, failures: list[str]):
    verdict = "PASS" if not failures else "FAIL"
    record_acceptance(f"criterion {num} [{label}]: {verdict}" + (f" -- {'; '.join(failures)}" if failures else ""))
    if failures:
        pytest.fail(f"criterion {num}: " + "; ".join(failures))


class TestCriterion1:
    def test_long_horizon_four_level_reproduction(self):
        failures = []
        t0 = time.perf_counter()
        prob = DualProblem(oscillator(), [four_level_ladder()])
        rep, ctrl, terminal = solve_extract_simulate(prob)
        elapsed = time.perf_counter() - t0
        if rep.status is not SolveStatus.CONVERGED:
            failures.append(f"status {rep.status.value}")
        if not terminal <= 1e-2:
            failures.append(
                f"terminal norm {terminal:.3g} > 1e-2"
                + (
                    " (dual minimizer is the origin: the target state is reachable"
                    " with controls below the inner slopes, so no staircase"
                    " selection exists)"
                    if ctrl is None
                    else ""
                )
            )
        if ctrl is not None:
            expected = np.array([-1.5, -0.5, 0.5, 1.5])
            for ch in ctrl.channels:
                if not np.all(np.isin(ch.levels, expected)):
                    failures.append(f"levels {sorted(set(ch.levels))} not in {expected.tolist()}")
                ok, vio = verify_staircase(ctrl, ch.level_set)
                if not ok:
                    failures.append(f"staircase violated: {vio}")
        else:
            failures.append("no control extracted")
        if elapsed > 30.0:
            failures.append(f"runtime {elapsed:.1f}s > 30s")
        finish(1, "long-horizon four-level reproduction", failures)


class TestCriterion2:
    def test_short_horizon_dichotomy(self):
        failures = []
        ladder = four_level_ladder()
        # leg 1: plain kind with the large state must fail
        prob = DualProblem(oscillator(T=0.5), [ladder])
        rep, _, terminal = solve_extract_simulate(prob)
        leg1 = rep.status is SolveStatus.DIVERGED or terminal > 0.1
        if not leg1:
            failures.append(f"plain kind unexpectedly controlled (terminal {terminal:.3g})")
        # leg 2: squared-integral kind with the same data must control
        prob = DualProblem(oscillator(T=0.5), [four_level_ladder()], kind="squared")
        rep, _, terminal = solve_extract_simulate(prob)
        if not (rep.status is SolveStatus.CONVERGED and terminal <= 1e-2):
            failures.append(
                f"squared kind: status {rep.status.value}, terminal {terminal:.3g} > 1e-2"
            )
        # leg 3: plain kind with the small state
        prob = DualProblem(oscillator(T=0.5, x0=np.array([-0.25, 0.25])), [four_level_ladder()])
        rep, _, terminal = solve_extract_simulate(prob)
        if not (rep.status is SolveStatus.CONVERGED and terminal <= 1e-2):
            failures.append(
                f"plain kind small state: status {rep.status.value}, terminal {terminal:.3g}"
                " (the functional is non-coercive here: along directions whose"
                " adjoint observation nearly vanishes on the short window, the"
                " linear drift term dominates the penalized integral)"
            )
        finish(2, "short-horizon dichotomy", failures)


class TestCriterion3:
    def test_scalar_coercivity_boundary(self):
        failures = []
        ladder = build_penalization(quadratic_profile(), Partition(np.array([-1.0, 0.0, 1.0])))
        grid = QuadratureGrid.trapezoid(1.0, 4000)
        sys_big = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[1.5], T=1.0)
        rep = minimize(DualProblem(sys_big, [ladder], grid=grid))
        if rep.status is not SolveStatus.DIVERGED:
            failures.append(f"x0=1.5 should diverge, got {rep.status.value}")
        x0_small = 0.5 * (1.0 - np.exp(-1.0))
        sys_small = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[x0_small], T=1.0)
        prob = DualProblem(sys_small, [ladder], grid=grid)
        rep, _, terminal = solve_extract_simulate(prob)
        if rep.status is not SolveStatus.CONVERGED:
            failures.append(f"small state should converge, got {rep.status.value}")
        if not terminal <= 1e-3:
            failures.append(
                f"terminal {terminal:.3g} > 1e-3 (inside the coercive region the"
                " minimizer is the origin -- the drift x0 e^T lies within"
                " (e^T - 1) * [-1, 1], the subdifferential of the penalized"
                " integral at 0 -- so the extraction is degenerate)"
            )
        finish(3, "scalar coercivity boundary", failures)


class TestCriterion4:
    def test_convergence_to_quadratic_control(self):
        failures = []
        cfg = load_config(CONFIG_DIR / "osc-t4.json")
        # criterion partition: the four-level ladder
        import dataclasses

        cfg = dataclasses.replace(cfg, partitions=((-1.0, -0.5, 0.0, 0.5, 1.0),))
        rows = convergence_study(cfg, [4, 8, 16, 32])
        dists = [r.get("l2_distance") for r in rows]
        missing = [r["segments"] for r in rows if r.get("l2_distance") is None]
        if missing:
            failures.append(
                f"no staircase control at segment counts {missing} "
                "(degenerate origin minimizer for the 4-segment ladder)"
            )
        solved = [d for d in dists if d is not None]
        if any(b >= a for a, b in zip(solved[:-1], solved[1:])):
            failures.append(f"distances not strictly decreasing: {solved}")
        # functional-difference bound at 100 random adjoint data
        part = Partition(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
        pen = build_penalization(quadratic_profile(), part)
        plain = DualProblem(oscillator(), [pen])
        quad = DualProblem(oscillator(), [], kind="quadratic")
        h = part.mesh_size
        bound = 0.5 * h * h * 2.0 * 4.0
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            p = rng.standard_normal(2)
            q = plain.adjoint_observations(p)[:, 0]
            amax = float(np.max(np.abs(q)))
            if amax > 0:
                p = p * (0.999 / amax)
            worst = max(worst, abs(eval_functional(plain, p) - eval_functional(quad, p)))
        if worst > bound:
            failures.append(f"functional difference {worst:.3g} exceeds the bound {bound:.3g}")
        finish(4, "convergence to the quadratic-cost control", failures)


class TestCriterion5:
    def test_fenchel_duality(self):
        failures = []
        prob = DualProblem(
            oscillator(), [four_level_ladder()], grid=QuadratureGrid.trapezoid(4.0, 4000)
        )
        rep = minimize(prob)
        if rep.status is not SolveStatus.CONVERGED:
            failures.append(f"dual status {rep.status.value}")
        primal = solve_primal(build_discrete_primal(prob))
        gap = duality_gap(primal.v, rep.p_T_star, prob)
        if not abs(gap.gap) <= 1e-3 * (1.0 + abs(gap.primal_value)):
            failures.append(f"duality gap {gap.gap:.3g} above 1e-3 relative")
        try:
            ctrl = extract_control(rep.p_T_star, prob)
            uml = ctrl.channels[0](prob.grid.nodes)
            w = prob.grid.weights
            dist = float(np.sqrt(w @ (primal.v[:, 0] - uml) ** 2))
            rel = dist / float(np.sqrt(w @ uml**2))
            if not rel <= 0.05:
                failures.append(f"primal/dual control distance {rel:.2%} > 5%")
        except DegenerateAdjointError as exc:
            failures.append(f"no staircase control to compare against ({exc})")
        frac = optimality_fraction(primal.v, rep.p_T_star, prob)
        if not frac >= 0.99:
            failures.append(f"optimality relation holds at {frac:.2%} of nodes < 99%")
        finish(5, "strong duality with the conjugate-cost primal", failures)


class TestCriterion6:
    def test_solvable_set_necessity(self):
        failures = []
        # every converged-and-controlled plain-kind single-channel scenario
        # of the shipped suite must satisfy the necessary norm bound
        checked = 0
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = load_config(path)
            if not cfg.kind.penalized or cfg.kind.value != "plain":
                continue
            if cfg.system.channels != 1:
                continue
            prob = DualProblem(
                cfg.system, cfg.penalizations(), kind=cfg.kind, grid=cfg.quadrature()
            )
            rep, ctrl, terminal = solve_extract_simulate(prob)
            if rep.status is not SolveStatus.CONVERGED or ctrl is None or terminal > 1e-2:
                continue
            checked += 1
            report = solvable_bound(cfg.system, prob.penalizations[0], scale=ctrl.scale)
            if not report.passes:
                failures.append(
                    f"{cfg.name}: ||x0|| = {report.x0_norm:.4g} above the bound {report.bound:.4g}"
                )
        if checked == 0:
            failures.append("no converged-and-controlled plain scenario found in the suite")
        # oscillator Gram norm equals sqrt(T)
        rep = solvable_bound(oscillator(), four_level_ladder())
        if abs(rep.gram_norm - 2.0) > 1e-8:
            failures.append(f"oscillator Gram norm {rep.gram_norm!r} != sqrt(4) within 1e-8")
        finish(6, "solvable-set necessary bound", failures)


class TestCriterion7:
    def test_two_channel_case(self):
        failures = []
        B = np.array([[1.0, 0.0], [1.0, 1.0]])  # columns (1,1) and (0,1)
        prob = DualProblem(oscillator(B=B), [five_level_ladder(), five_level_ladder()])
        rep, ctrl, terminal = solve_extract_simulate(prob)
        if rep.status is not SolveStatus.CONVERGED:
            failures.append(f"status {rep.status.value}")
        if not terminal <= 1e-2:
            failures.append(f"terminal norm {terminal:.3g} > 1e-2")
        if ctrl is not None:
            for i, ch in enumerate(ctrl.channels):
                ok, vio = verify_staircase(ctrl, ch.level_set)
                if not ok:
                    failures.append(f"channel {i} staircase violated: {vio}")
        finish(7, "two control channels", failures)


class TestCriterion8:
    def test_property_suites(self):
        failures = []
        ladder = four_level_ladder()
        conj = conjugate(ladder)
        rng = np.random.default_rng(99)

        # (a) conjugate duality identities on 1000 samples
        bad = 0
        uu = rng.uniform(-1.5, 1.5, size=1000)
        uu[: ladder.breakpoints.size] = ladder.breakpoints
        for u in uu:
            iv = subdifferential(ladder, float(u))
            for v in {iv.lower, iv.upper}:
                lhs = float(u) * v
                rhs = float(ladder.value(float(u))) + float(conj.value(v))
                if abs(lhs - rhs) > 1e-10 or not subdifferential(conj, v).contains(
                    float(u), slack=1e-10
                ):
                    bad += 1
        if bad:
            failures.append(f"(a) conjugate duality failed at {bad} samples")

        # (b) conjugate against the brute-force grid supremum
        ug = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
        lv = ladder.value(ug)
        vv = np.linspace(conj.domain[0], conj.domain[1], 301)
        oracle = np.max(np.multiply.outer(vv, ug) - lv, axis=1)
        err = np.max(np.abs(conj.value(vv) - oracle))
        if err > 1e-4 * (3.0 + 1.5):
            failures.append(f"(b) conjugate oracle error {err:.3g}")

        # (c) subgradient vs central finite differences at smooth points
        prob = DualProblem(oscillator(), [ladder], grid=QuadratureGrid.trapezoid(4.0, 1200))
        checked = 0
        while checked < 100:
            p = rng.uniform(-1.5, 1.5, size=2)
            q = prob.adjoint_observations(p)[:, 0]
            if np.min(np.abs(q[:, None] - ladder.breakpoints)) < 1e-4:
                continue
            g = eval_subgradient(prob, p)
            fd = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = 1e-6
                fd[i] = (eval_functional(prob, p + e) - eval_functional(prob, p - e)) / 2e-6
            if np.linalg.norm(g - fd) > 1e-5 * (1.0 + np.linalg.norm(g)):
                failures.append(f"(c) finite-difference mismatch at p={p}")
                break
            checked += 1

        # (d) measured interpolation error within the curvature bound
        for _ in range(50):
            a = rng.uniform(0.2, 3.0)
            b = rng.uniform(0.05, 1.0)
            prof = ConvexProfile(
                fun=lambda u, a=a, b=b: a * u * u + b * np.cosh(u),
                second_derivative=lambda u, a=a, b=b: 2 * a + b * np.cosh(u),
            )
            pts = np.sort(rng.uniform(-1.5, 1.5, size=7))
            if np.min(np.diff(pts)) < 1e-2:
                continue
            part = Partition(pts)
            pen = build_penalization(prof, part)
            _, bound = interp_error_bound(prof, part)
            xs = np.linspace(pts[0], pts[-1], 2001)
            measured = float(np.max(np.abs(pen.value(xs) - prof(xs))))
            if measured > bound + 1e-12:
                failures.append(f"(d) interpolation error {measured:.3g} above bound {bound:.3g}")
                break

        # (e) matrix exponential against the truncated series
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            A *= 2.0 / max(np.linalg.norm(A, 2), 1e-12)
            t = rng.uniform(-1.0, 1.0)
            series = np.eye(4)
            term = np.eye(4)
            for k in range(1, 60):
                term = term @ (t * A) / k
                series += term
            if np.max(np.abs(mat_exp(A, t) - series)) > 1e-10:
                failures.append("(e) matrix exponential deviates from the series oracle")
                break

        # (f) adjoint pairing identity
        from multilevel_control import adjoint_state

        for _ in range(50):
            A = rng.standard_normal((3, 3))
            sys = LtiSystem(A=A, B=np.ones((3, 1)), x0=rng.standard_normal(3), T=1.1)
            p_T = rng.standard_normal(3)
            traj = simulate_forward(sys, lambda t: 0.0, np.linspace(0, 1.1, 12))
            lhs = float(traj.terminal @ p_T)
            rhs = float(sys.x0 @ adjoint_state(sys, p_T, 0.0))
            if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
                failures.append("(f) adjoint pairing identity violated")
                break

        finish(8, "property suites", failures)


class TestCriterion9:
    def test_amplified_levels(self):
        failures = []
        ladder = four_level_ladder()
        prob = DualProblem(oscillator(), [ladder], kind="scaled", beta=3.0)
        rep, ctrl, terminal = solve_extract_simulate(prob)
        if rep.status is not SolveStatus.CONVERGED:
            failures.append(f"status {rep.status.value}")
        if ctrl is None:
            failures.append(
                "no staircase control extracted (amplification worsens the"
                " origin degeneracy: the subdifferential at 0 grows with the"
                " amplification factor)"
            )
        else:
            expected = 3.0 * slopes(ladder)
            for ch in ctrl.channels:
                if not np.all(np.isin(ch.levels, expected)):
                    failures.append(f"levels {sorted(set(ch.levels))} not 3x the slope set")
                ok, vio = verify_staircase(ctrl, ch.level_set)
                if not ok:
                    failures.append(f"staircase violated: {vio}")
        if not terminal <= 1e-2:
            failures.append(f"terminal norm {terminal} > 1e-2")
        finish(9, "amplified level ladder", failures)
