"""Rewrite the crossings in synthesis_minimizers.json as roots of q(t) - level
solved in 40-digit arithmetic, each started from the stored value.

    PYTHONPATH=src python tests/data/record_roots.py   # needs mpmath

q(t) = B_c^T e^{(T - t) A^T} p is evaluated by mpmath's matrix exponential of
the stored A, B and p, read as exact binary values.  The level is the
breakpoint of the channel's penalization, as the tests build it, nearest to
q at the stored crossing.  The roots are stored as 40-digit strings.
"""

import json
from pathlib import Path

import mpmath
import numpy as np

from multilevel_control import ConvexProfile, Partition, build_penalization, quadratic_profile

PATH = Path(__file__).with_name("synthesis_minimizers.json")
mpmath.mp.dps = 40


def breakpoints(points):
    prof = quadratic_profile()
    relaxed = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
    return build_penalization(relaxed, Partition(np.asarray(points, dtype=float))).breakpoints


def main():
    data = json.loads(PATH.read_text())
    for datum in data:
        At, T, p = mpmath.matrix(datum["A"]).T, mpmath.mpf(datum["T"]), mpmath.matrix(datum["p_T"])
        levels = breakpoints(datum["partition"])
        for ch, crossings in enumerate(datum["crossings"]):
            b = mpmath.matrix([row[ch] for row in datum["B"]])

            def q(t):
                return (b.T * mpmath.expm((T - t) * At) * p)[0]

            roots = []
            for t0 in map(mpmath.mpf, crossings):
                level = mpmath.mpf(levels[np.argmin(np.abs(levels - float(q(t0))))])
                root = mpmath.findroot(lambda t: q(t) - level, (t0, t0 + mpmath.mpf("1e-9")), solver="secant")
                assert abs(root - t0) < 1e-8, (datum["op_id"], ch, float(t0))
                roots.append(mpmath.nstr(root, 40))
            datum["crossings"][ch] = roots
    PATH.write_text(json.dumps(data, indent=1))


if __name__ == "__main__":
    main()
