"""Command-line experiment runner.

Verbs:
    mlctl run <config.json>          run one scenario
    mlctl suite <dir>                run every *.json scenario in a directory
    mlctl converge <config.json> --sizes M1 M2 ...   level-refinement study
    mlctl report <dir>               re-check and summarize a finished run

Exit codes: 0 pass, 2 checks failed, 3 solver diverged (inverted for
scenarios with checks.expect_divergence), 4 configuration error.  The
output root is taken from --out, else $MLCTL_OUTPUT_ROOT, else the current
directory; each scenario writes to <root>/<output_dir>.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config, read_raw_config
from .experiments import (
    EXIT_CHECKS_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    convergence_study,
    run_scenario,
    simulation_grid,
)
from .extract import MultilevelControl
from .lti import simulate_forward

OUTPUT_ROOT_ENV = "MLCTL_OUTPUT_ROOT"


def _output_root(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    return Path(env) if env else Path.cwd()


def _load(path, args) -> ExperimentConfig:
    """Parse a config with --grid, --seed and --tol set in its raw JSON, so
    they are validated and recorded in report.json like the file's values."""
    raw = read_raw_config(path)
    overrides = (
        ("grid", "nodes", args.grid),
        (None, "seed", args.seed),
        ("checks", "terminal_tol", args.tol),
    )
    for section, key, value in overrides:
        if value is not None and isinstance(raw, dict):
            target = raw if section is None else raw.setdefault(section, {})
            if isinstance(target, dict):  # otherwise parse_config names the section
                target[key] = value
    return parse_config(raw, name_hint=Path(path).stem)


def _print_report(rep) -> None:
    print(f"scenario {rep.name}: status={rep.status} passed={rep.passed}")
    for key, ok in rep.checks.items():
        print(f"  check {key}: {'pass' if ok else 'FAIL'}")
    if rep.terminal_norm is not None:
        print(f"  terminal norm: {rep.terminal_norm:.3e}")
    if rep.message:
        print(f"  note: {rep.message}")


def cmd_run(args) -> int:
    cfg = _load(args.config, args)
    out = _output_root(args) / cfg.output_dir
    rep = run_scenario(cfg, out)
    _print_report(rep)
    print(f"wrote {out}")
    return rep.exit_code


def cmd_suite(args) -> int:
    root = Path(args.directory)
    configs = sorted(root.glob("*.json"))
    if not configs:
        raise ConfigError(f"no *.json scenarios in {root}")
    out_root = _output_root(args)
    codes = {}
    owners = {}  # output_dir -> the config file that writes there
    summaries = []
    for path in configs:
        try:
            cfg = _load(path, args)
            if cfg.output_dir in owners:
                raise ConfigError(
                    f"output_dir: {cfg.output_dir!r} is also the output_dir of {owners[cfg.output_dir]}"
                )
        except ConfigError as exc:
            print(f"{path.name}: config error: {exc}", file=sys.stderr)
            codes[path] = EXIT_CONFIG_ERROR
            continue
        owners[cfg.output_dir] = path.name
        rep = run_scenario(cfg, out_root / cfg.output_dir)
        _print_report(rep)
        codes[path] = rep.exit_code
        summaries.append({"name": cfg.name, "exit_code": rep.exit_code, "passed": rep.passed})
    worst = max(codes.values()) if codes else EXIT_CONFIG_ERROR
    (out_root / "suite_summary.json").parent.mkdir(parents=True, exist_ok=True)
    (out_root / "suite_summary.json").write_text(
        json.dumps({"scenarios": summaries, "exit_code": worst}, indent=2, sort_keys=True) + "\n"
    )
    print(f"suite: {sum(1 for c in codes.values() if c == 0)}/{len(codes)} scenarios passed")
    return worst


def cmd_converge(args) -> int:
    cfg = _load(args.config, args)
    out = _output_root(args) / f"{cfg.output_dir}-convergence"
    rows = convergence_study(cfg, args.sizes, out)
    print(f"{'M':>6} {'status':>12} {'L2 distance':>14} {'levels':>7} {'bound':>6}")
    for r in rows:
        dist = r.get("l2_distance")
        print(
            f"{r['segments']:>6} {r['status']:>12} "
            f"{'-' if dist is None else format(dist, '.6e'):>14} "
            f"{r.get('levels_used', '-'):>7} {'ok' if r.get('bound_ok') else 'FAIL':>6}"
        )
    print(f"wrote {out}")
    solved = [r for r in rows if "l2_distance" in r]
    all_ok = len(solved) == len(rows) and all(r.get("bound_ok") for r in rows)
    return EXIT_PASS if all_ok else EXIT_CHECKS_FAILED


def cmd_report(args) -> int:
    rep_path = Path(args.directory) / "report.json"
    if not rep_path.exists():
        raise ConfigError(f"no report.json under {args.directory}")
    rep = json.loads(rep_path.read_text())
    print(f"scenario {rep['name']}: status={rep['status']} passed={rep['passed']}")
    solve = rep.get("solve", {})
    counters = ("iterations", "newton_steps", "line_search_halvings", "line_search_trials")
    print("  solve: " + " ".join(f"{key}={solve.get(key)}" for key in counters))
    for key, ok in rep.get("checks", {}).items():
        print(f"  check {key}: {'pass' if ok else 'FAIL'}")
    # round-trip: the serialized control must reproduce the stored terminal norm
    if rep.get("control") and rep.get("terminal_norm") is not None:
        cfg = parse_config(rep["config"], name_hint=rep["name"])
        ctrl = MultilevelControl.from_record(rep["control"])
        traj = simulate_forward(cfg.system, ctrl, simulation_grid(cfg.quadrature().nodes, ctrl))
        drift = abs(traj.terminal_norm - rep["terminal_norm"])
        print(f"  re-simulated terminal norm: {traj.terminal_norm:.6e} (drift {drift:.2e})")
        if drift > 1e-10:
            print("  round-trip FAILED: stored terminal norm is stale", file=sys.stderr)
            return EXIT_CHECKS_FAILED
    return int(rep.get("exit_code", EXIT_CHECKS_FAILED))


def main(argv=None) -> int:
    """Run one verb; a ConfigError it raises prints ``config error: ...`` and exits 4."""
    parser = argparse.ArgumentParser(
        prog="mlctl",
        description="Staircase (multilevel) control synthesis experiments",
        epilog=f"Output root: --out, else ${OUTPUT_ROOT_ENV}, else the working directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, help="override the quadrature node count")
    common.add_argument("--seed", type=int, help="override the scenario seed")
    common.add_argument("--tol", type=float, help="override the terminal-norm tolerance")
    common.add_argument("--out", type=str, help="output root directory")

    p_run = sub.add_parser("run", parents=[common], help="run one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON config")
    p_run.set_defaults(fn=cmd_run)

    p_suite = sub.add_parser("suite", parents=[common], help="run every scenario in a directory")
    p_suite.add_argument("directory", help="directory holding *.json scenario configs")
    p_suite.set_defaults(fn=cmd_suite)

    p_conv = sub.add_parser(
        "converge", parents=[common], help="level-refinement study against the quadratic control"
    )
    p_conv.add_argument("config", help="path to a scenario JSON config")
    p_conv.add_argument(
        "--sizes", type=int, nargs="+", required=True, help="segment counts, e.g. --sizes 4 8 16 32"
    )
    p_conv.set_defaults(fn=cmd_converge)

    p_rep = sub.add_parser("report", help="summarize and re-check a finished scenario directory")
    p_rep.add_argument("directory", help="a scenario output directory")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
