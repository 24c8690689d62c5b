"""Short horizons: where the plain dual functional gives up, and how the
squared-integral variant rescues the synthesis.

At T = 0.5 no control with levels in the ladder's hull [-1.5, 1.5] steers
x0 = (-1, 0.5) to 0, and the plain functional is unbounded below: the
solver certifies divergence by a negative chord bound of the functional's
recession (the support-function margin of the hull) along an iterate.
Squaring the penalized integral makes the functional coercive for every
horizon on this controllable plant, whose ladder has 0 inside its hull; the
price is an extra intensity factor carried by the control levels.
"""

import numpy as np

from multilevel_control import (
    DualProblem,
    LtiSystem,
    Partition,
    SolveStatus,
    build_penalization,
    extract_control,
    minimize,
    quadratic_profile,
    simulate_forward,
)

pen = build_penalization(quadratic_profile(), Partition(np.array([-1, -0.5, 0, 0.5, 1.0])))
sys = LtiSystem(A=[[0, 1], [-1, 0]], B=[[0], [1]], x0=[-1.0, 0.5], T=0.5)

print("plain kind, T = 0.5:")
rep = minimize(DualProblem(sys, [pen], kind="plain"))
print(f"  {rep.status.value}: {rep.message}")
assert rep.status is SolveStatus.DIVERGED

print("\nsquared kind, same data:")
prob = DualProblem(sys, [pen], kind="squared")
rep = minimize(prob)
print(f"  {rep.status.value} at p_T = {rep.p_T_star}")
ctrl = extract_control(rep.p_T_star, prob)
print(f"  intensity factor: {ctrl.scale:.4f}")
print(f"  realized levels:  {sorted(float(v) for v in set(ctrl.channels[0].levels))}")
grid = np.union1d(prob.grid.nodes, ctrl.channels[0].switch_times)
traj = simulate_forward(sys, ctrl, grid)
print(f"  terminal norm:    {traj.terminal_norm:.2e}")

print("\nsmall initial state (-0.25, 0.25), plain kind, T = 0.5:")
sys_small = LtiSystem(A=[[0, 1], [-1, 0]], B=[[0], [1]], x0=[-0.25, 0.25], T=0.5)
rep = minimize(DualProblem(sys_small, [pen], kind="plain"))
print(f"  {rep.status.value}")
print(
    "  (even this small state is outside the coercive range of the +-1.5"
    "\n   ladder on so short a window; the squared kind handles it instead)"
)
prob = DualProblem(sys_small, [pen], kind="squared")
rep = minimize(prob)
ctrl = extract_control(rep.p_T_star, prob)
grid = np.union1d(prob.grid.nodes, ctrl.channels[0].switch_times)
print(
    f"  squared kind: {rep.status.value}, terminal norm "
    f"{simulate_forward(sys_small, ctrl, grid).terminal_norm:.2e}"
)
