"""Compare the seed-1 outputs of two checkouts of this repository, op by op.

    python3 .github/compare_outputs.py BASE HEAD [--workloads synthesis suite certify]

Each checkout's ``perfbench/workloads.py`` runs every seed-1 op of a workload
once, in a child process of its own, since both checkouts hold modules of
the same names.  Per workload one Markdown table row says whether every op
ends in the same status with the same number of switches per channel,
whether all levels are equal, the largest relative level shift (levels
are the scale times the slopes, so this covers the squared kinds' scale), the
largest switch-time shift, each with the first op that reaches it, and, for
the scenario outputs, the largest change of a CSV value relative to the
largest magnitude in its file.  The
script reports and never fails: a change that moves outputs on purpose
moves these figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def dump(checkout: Path, workload: str, out: Path) -> None:
    """Run the checkout's seed-1 ops of ``workload`` and print their answers
    as JSON; scenario outputs are kept under ``out``."""
    sys.path.insert(0, str(checkout.resolve() / "perfbench"))
    from checkout import pin_threads, use_checkout_sources

    pin_threads()  # before NumPy loads
    use_checkout_sources()
    import numpy as np
    import workloads

    answers = {}
    for case in workloads.cases(workload, 1):
        if isinstance(case, workloads.Scenario):
            (out / case.op_id).mkdir(parents=True)
            try:
                answer = workloads.run_scenario_case(case, out / case.op_id)
            except Exception as exc:  # reported as the op's status
                answer = {"status": "raised", "error": type(exc).__name__}
        else:
            _, answer = workloads.execute(case)
        answers[case.op_id] = {
            "status": answer.get("error", answer["status"]),
            "channels": [[np.asarray(t).tolist(), np.asarray(v).tolist()] for t, v in answer.get("channels", [])],
        }
    print(json.dumps(answers))


def run(checkout: Path, workload: str, out: Path) -> dict:
    cmd = [sys.executable, __file__, "--dump", str(checkout), workload, str(out)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def compare(workload: str, base: dict, head: dict, base_out: Path, head_out: Path) -> str:
    import numpy as np

    same, equal_levels = base.keys() == head.keys(), True
    level_shift = time_shift = (0.0, "-")  # (largest shift, the first op to reach it)

    def larger(old, shift, op):
        return (shift, op) if shift > old[0] else old

    for op in sorted(base.keys() & head.keys()):
        a, b = base[op], head[op]
        counts = [len(t) for t, _ in a["channels"]], [len(t) for t, _ in b["channels"]]
        if a["status"] != b["status"] or counts[0] != counts[1]:
            same = False
            continue
        for (ta, va), (tb, vb) in zip(a["channels"], b["channels"]):
            va, vb = np.asarray(va), np.asarray(vb)
            equal_levels &= bool(np.array_equal(va, vb))
            if va.size:
                level_shift = larger(level_shift, float(np.max(np.abs(va - vb)) / max(np.max(np.abs(va)), 1e-300)), op)
                time_shift = larger(time_shift, float(np.max(np.abs(np.asarray(ta) - np.asarray(tb)), initial=0.0)), op)
    csv_change = {}
    for path in sorted(base_out.glob("*/*.csv")):
        other = head_out / path.relative_to(base_out)
        a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        b = np.loadtxt(other, delimiter=",", skiprows=1, ndmin=2) if other.is_file() else None
        if b is None or a.shape != b.shape:
            csv_change[path.name] = float("inf")
        elif a.size:
            change = float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300))
            csv_change[path.name] = max(csv_change.get(path.name, 0.0), change)
    csv = ", ".join(f"{name} {v:.2g}" for name, v in csv_change.items()) or "-"
    return (
        f"| {workload} | {len(base)} | {'yes' if same else 'NO'} | {'yes' if equal_levels else 'no'} "
        f"| {level_shift[0]:.2g} ({level_shift[1]}) | {time_shift[0]:.2g} ({time_shift[1]}) | {csv} |"
    )


def main() -> None:
    if sys.argv[1:2] == ["--dump"]:
        dump(Path(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workloads", nargs="+", default=["synthesis", "suite", "certify"])
    args = parser.parse_args()
    print("| workload | ops | same status and switch counts | levels equal | largest level shift (rel.) "
          "| largest switch-time shift | largest CSV change (rel.) |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in args.workloads:
        with tempfile.TemporaryDirectory() as tmp:
            base_out, head_out = Path(tmp) / "base", Path(tmp) / "head"
            base, head = run(args.base, workload, base_out), run(args.head, workload, head_out)
            print(compare(workload, base, head, base_out, head_out), flush=True)


if __name__ == "__main__":
    main()
