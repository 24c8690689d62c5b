"""Write the large-N panel plants of STALLED to rounding_floor_plants.json.

    python tests/data/record_rounding_floor_plants.py

The panel is ``large_n_panel()`` of ``bench/test_large_n.py``: 18 plants drawn
by ``perfbench/workloads.synthesis_instance`` from one fixed seed.  The plants
kept are those whose Newton descent stalled at the rounding floor of a
gradient summed per switching interval.  Each is stored with its quadrature
nodes, bracket multiplier and iteration cap; JSON keeps every float exactly.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "bench")]

import workloads  # noqa: E402
from test_large_n import large_n_panel  # noqa: E402

PATH = Path(__file__).with_name("rounding_floor_plants.json")
STALLED = ("big-n12k2-scaled", "big-n16k1-plain", "big-n16k2-scaled")


def main():
    data = [
        {
            "op_id": inst.op_id,
            "A": inst.A.tolist(),
            "B": inst.B.tolist(),
            "x0": inst.x0.tolist(),
            "T": inst.T,
            "partition": list(inst.partition),
            "kind": inst.kind,
            "beta": inst.beta,
            "nodes": inst.nodes,
            "bracket_multiplier": workloads.BRACKET_MULTIPLIER,
            "max_iterations": inst.max_iterations,
        }
        for inst in large_n_panel()
        if inst.op_id in STALLED
    ]
    PATH.write_text(json.dumps(data, indent=1))


if __name__ == "__main__":
    main()
