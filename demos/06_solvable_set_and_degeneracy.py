"""Limits of the staircase synthesis: the solvable-set bound and the origin
degeneracy.

Two distinct obstructions cap what a given level ladder can do:

1. NECESSITY.  A steerable initial state must satisfy
   ||x0|| <= sigma_bar * sqrt(T) * ||e^{-tau A} B||_{L^2(0,T)}.  States
   above the bound are out of reach for any control built from the ladder.

2. DEGENERACY.  When the penalization's minimum sits on a kink (the ladder
   has no zero level), initial states that are reachable with controls
   bounded by the two inner slopes make the origin the exact dual
   minimizer.  The optimal controls are then the selections of the
   subdifferential at the kink, and the dual datum alone does not fix the
   switching times.  Extraction selects a staircase between the two inner
   slopes with N = 2 switches, the principal representation of a moment
   point, and places them by Gauss-Newton on the exact terminal map.
   Ladders with a flat middle segment (zero level, as in the 6-point
   construction) give a regular minimizer for the same data, whose
   switches sit at the crossings of B^T p (3 there, against 2 here).
"""

import numpy as np

from multilevel_control import (
    DualProblem,
    LtiSystem,
    Partition,
    build_penalization,
    extract_control,
    minimize,
    quadratic_profile,
    simulate_forward,
    solvable_bound,
)

pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))

print("necessary bound for the oscillator ladder {-1.5,-0.5,0.5,1.5}:")
for T in (0.5, 1.0, 4.0):
    sys = LtiSystem(A=[[0, 1], [-1, 0]], B=[[0], [1]], x0=[-1.0, 0.5], T=T)
    rep = solvable_bound(sys, pen)
    print(
        f"  T = {T:3.1f}: ||x0|| = {rep.x0_norm:.3f} vs bound {rep.bound:.3f} "
        f"-> {'admissible' if rep.passes else 'out of reach'}"
    )

print("\nscalar expansive plant x' = x + u, |levels| = 1:")
for x0 in (0.5, 1.5):
    sys = LtiSystem(A=[[1.0]], B=[[1.0]], x0=[x0], T=1.0)
    rep = solvable_bound(
        sys, build_penalization(quadratic_profile(), Partition(np.array([-1.0, 0.0, 1.0])))
    )
    print(f"  x0 = {x0}: bound {rep.bound:.3f} -> {'admissible' if rep.passes else 'out of reach'}")

print("\norigin degeneracy on the long horizon (kinked ladder, T = 4):")
sys = LtiSystem(A=[[0, 1], [-1, 0]], B=[[0], [1]], x0=[-1.0, 0.5], T=4.0)
prob = DualProblem(sys, [pen])
rep = minimize(prob)
print(f"  solver: {rep.status.value} at p_T = {rep.p_T_star} ({rep.message})")
ctrl = extract_control(rep.p_T_star, prob)
ch = ctrl.channels[0]
traj = simulate_forward(sys, ctrl, np.concatenate([[0.0], ch.switch_times, [sys.T]]))
print(
    f"  extraction: staircase on levels {sorted(set(ch.levels.tolist()))} with "
    f"{ch.switch_times.size} switches, exact terminal norm {traj.terminal_norm:.1e}"
)
print(
    "  regular minimizer instead: a ladder with a zero level (e.g. the 6-point"
    "\n  uniform partition), a shorter horizon, or the squared-integral functional."
)
