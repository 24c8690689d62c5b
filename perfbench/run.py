"""Benchmark of the multilevel-control library.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

One client runs the workload's ops in a closed loop (each op starts when the
previous one has returned), in passes over the seed's op list; the pass
count is set by ``--seconds`` (see ``pass_count``).  Every answer is verified
independently of the program.  With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the last line reports the per-layer metrics of the traced passes.  See
README.md next to this file.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from checkout import OUT, ROOT, CheckoutError, pin_threads, use_checkout_sources  # noqa: E402

pin_threads()

SETUP_SAMPLES = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120
# Seconds per pass at the commit that defined the benchmark.  A run makes
# --seconds / NOMINAL_PASS_S passes, so that every commit runs the same ops:
# op_tail_s is an order statistic over repeated op lists, and a pass count
# that followed the machine's speed made it jump from one op to another.
NOMINAL_PASS_S = {"suite": 5.0, "synthesis": 20.0, "certify": 5.0}
END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "op_p50_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int):
    """Import, input generation and one warm-up op.  Returns the op list
    and the seconds since the interpreter started this script."""
    use_checkout_sources()
    import workloads

    ops = workloads.cases(workload, seed)
    warm = workloads.warmup_case(workload)
    workloads.verify(warm, workloads.execute(warm)[1])
    return ops, time.perf_counter() - _START


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, ops beyond): the highest order statistic with at
    least ten ops above it, i.e. the eleventh-largest latency, at percentile
    100 (n - 10) / n; the maximum when there are too few ops.

    An order statistic, not an interpolated percentile: the op list repeats
    every pass, and interpolating across the gap between two ops' latencies
    made the value jump with the number of passes.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return 100.0, lat[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, lat[n - TAIL_BEYOND - 1], TAIL_BEYOND


def quartile_spread(values) -> str:
    if len(values) < 2:
        return "one sample"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, quartiles {q1:.4f}..{q3:.4f} ({(q3 - q1) / q2:.1%} of the median) over {len(values)}"


def pass_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(ops, passes: int, tracer):
    """Closed loop over ``passes`` whole passes.  Returns (op records, pass
    records).  With a tracer, even passes run untraced and odd passes traced.
    """
    import workloads

    records, out = [], []
    for index in range(passes):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            mark = tracer.mark()
        busy = 0.0
        for case in ops:
            if tracer is not None:
                tracer.op_id = f"p{index}:{case.op_id}"
            latency, answer = workloads.execute(case)
            verified, wrong, reason = workloads.verify(case, answer)
            busy += latency
            records.append(
                dict(pass_index=index, traced=traced, op_id=case.op_id, latency=latency, verified=verified,
                     wrong=wrong, reason=reason, digest=workloads.digest_line(case, answer))
            )
        layers = None
        if traced:
            layers = tracer.layer_metrics(mark)
            tracer.uninstall()
        out.append(dict(traced=traced, seconds=busy, layers=layers))
    return records, out


def environment() -> list[str]:
    import numpy
    import scipy

    try:  # HiGHS as bundled with SciPy; the module is private
        from scipy.optimize._highspy import _core as highs

        highs_version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    except ImportError:
        highs_version = "unknown"
    return [
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), machine {platform.machine()}",
        f"python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"HiGHS {highs_version}, threads " + ",".join(f"{v}={os.environ[v]}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite", "synthesis", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        ops, own_setup = setup(args.workload, args.seed)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setup_samples = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    records, passes = run_passes(ops, pass_count(args.workload, args.seconds), tracer)

    import checks

    plain = [r for r in records if not r["traced"]]
    latencies = [r["latency"] for r in plain]
    attempted = len(records)
    failed = sum(not r["verified"] for r in records)
    wrong = sum(r["wrong"] for r in records)
    pass_digests = {}
    for r in records:
        pass_digests.setdefault(r["pass_index"], []).append(r["digest"])
    digests = {checks.digest(lines) for lines in pass_digests.values()}
    correct = wrong == 0 and len(digests) == 1

    pass_seconds = [p["seconds"] for p in passes if not p["traced"]]
    q, tail_value, beyond = tail(latencies)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "goodput_per_s": sum(r["verified"] for r in plain) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "pass_s": statistics.median(pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    lines = [f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass, {len(passes)} passes"]
    lines += environment()
    for name, value in end_to_end.items():
        lines.append(f"  {name:<16} {value:.6g} {END_TO_END_UNITS[name]}")
    # printed only: fail_share is 0 on suite, and on synthesis the order
    # statistic with ten ops beyond it sits near the median (see README.md)
    lines.append(f"  {'op_tail_s':<16} {tail_value:.6g} s (p{q:.1f} of {len(latencies)} ops, {beyond} beyond)")
    lines.append(f"  {'fail_share':<16} {sum(not r['verified'] for r in plain) / len(plain):.6g} share")
    lines.append(f"  setup samples: {quartile_spread(setup_samples)}")
    lines.append(f"  pass-to-pass spread: {quartile_spread(pass_seconds)}")
    lines.append(f"  attempted {attempted}, failed {failed}, wrong answers {wrong}")
    for reason, n in sorted(Counter(r["reason"] for r in records if not r["verified"]).items()):
        ids = sorted({r["op_id"] for r in records if not r["verified"] and r["reason"] == reason})
        lines.append(f"    {n} x {reason}: {', '.join(ids)}")
    lines.append(f"  output digest {sorted(digests)[0]}" + ("" if len(digests) == 1 else f" (+{len(digests) - 1} differing passes)"))

    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}
    if tracer is not None:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {
            name: {"value": statistics.median(p[name] for p in traced), "unit": unit_of(name)}
            for name in traced[0]
        }
        overhead = statistics.median(p["seconds"] for p in passes if p["traced"]) - end_to_end["pass_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append("  per-layer metrics, sums per traced pass (median over passes):")
        lines += [f"    {name:<32} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file)
        lines.append(f"  {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
