"""Refining the level ladder: staircase controls approach the quadratic-cost
control.

Doubling the number of chords halves the mesh of the interpolation, the
chord slopes fill in, and the synthesized staircase converges (in discrete
L^2) to the control obtained from the quadratic functional.  For this data
the 4-segment ladder's dual minimizer is the origin: its staircase takes
the two inner levels with N = 2 switches, placed by Gauss-Newton on the
switch times, against at most 12 in the regular cases (see demo 06).
"""

from multilevel_control.config import parse_config
from multilevel_control.experiments import convergence_study

cfg = parse_config(
    {
        "name": "refinement",
        "system": {"A": [[0, 1], [-1, 0]], "B": [[0], [1]], "x0": [-1.0, 0.5], "T": 4.0},
        "kind": "plain",
        "penalization": {
            "profile": "quadratic",
            "partitions": [[-1.0, -0.5, 0.0, 0.5, 1.0]],
        },
        "grid": {"nodes": 4000},
        "output_dir": "refinement",
    }
)

rows = convergence_study(cfg, sizes=[4, 5, 8, 16, 32])
print(f"{'segments':>9} {'status':>12} {'L2 distance':>13} {'levels used':>12} {'switches':>9}")
for r in rows:
    dist = r.get("l2_distance")
    print(
        f"{r['segments']:>9} {r['status']:>12} "
        f"{'-' if dist is None else format(dist, '.5f'):>13} "
        f"{r.get('levels_used', '-'):>12} {r.get('switches', '-'):>9}"
    )
print("\n(the distances shrink roughly in proportion to the chord width)")
