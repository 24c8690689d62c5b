"""Strong duality: the staircase synthesis agrees with the conjugate-cost
steering problem.

The primal problem minimizes the integrated convex conjugate of the
penalization over all controls that steer the state to zero exactly; its
optimal value offsets the dual optimum (their sum is the duality gap), and
its optimal control coincides with the staircase control up to the node
resolution.
"""

import numpy as np

from multilevel_control import (
    ConvexProfile,
    DualProblem,
    LtiSystem,
    Partition,
    build_discrete_primal,
    build_penalization,
    duality_gap,
    extract_control,
    minimize,
    optimality_fraction,
    quadratic_profile,
    solve_primal,
)

prof = quadratic_profile()
pen = build_penalization(
    ConvexProfile(prof.fun, prof.second_derivative, minimizer=None),
    Partition(np.linspace(-1, 1, 6)),
)
sys = LtiSystem(A=[[0, 1], [-1, 0]], B=[[0], [1]], x0=[-1.0, 0.5], T=4.0)
prob = DualProblem(sys, [pen])

rep = minimize(prob)
print(f"dual:   {rep.status.value}, value {rep.value:+.8f}")

primal = solve_primal(build_discrete_primal(prob))
print(f"primal: objective {primal.objective:+.8f} (HiGHS, residual {primal.residual:.1e})")

gap = duality_gap(primal.v, rep.p_T_star, prob)
print(f"duality gap (primal + dual): {gap.gap:+.2e}")

ctrl = extract_control(rep.p_T_star, prob)
uml = ctrl.channels[0](prob.grid.nodes)
w = prob.grid.weights
dist = np.sqrt(w @ (primal.v[:, 0] - uml) ** 2) / np.sqrt(w @ uml**2)
print(f"relative L2 distance between the two controls: {dist:.2%}")
print(f"conjugate optimality relation holds at {optimality_fraction(primal.v, rep.p_T_star, prob):.2%} of nodes")
