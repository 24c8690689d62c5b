"""Necessary condition for an initial state to be steerable by a staircase
control: ||x0|| <= sigma_bar * sqrt(T) * ||e^{-tau A} B||_{L^2(0,T)} with
sigma_bar the largest level magnitude.  Stated and implemented for a single
control channel."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .lti import LtiSystem, gramian
from .pwl import PwlConvex

__all__ = ["SolvableBoundReport", "solvable_bound"]


@dataclass(frozen=True)
class SolvableBoundReport:
    sigma_bar: float
    gram_norm: float
    bound: float
    x0_norm: float
    passes: bool

    def to_dict(self) -> dict:
        return asdict(self)


def solvable_bound(sys: LtiSystem, pen: PwlConvex, scale: float = 1.0) -> SolvableBoundReport:
    """Evaluate the necessary steering bound for ``sys`` under ``pen``.

    ``scale`` multiplies the slope ladder (the realized levels of the
    scaled/squared functionals).  A null control gives
    x0 = -int_0^T e^{-tau A} B u(tau) dtau, so |u| <= sigma_bar and
    Cauchy-Schwarz give the bound.  ``gram_norm`` is the L^2 norm
    ||e^{-tau A} B||, the square root of the trace of the Gramian of (-A, B).
    """
    if sys.channels != 1:
        raise ValueError("the solvable-set bound is stated for a single control channel")
    gram_norm = float(np.sqrt(np.trace(gramian(-sys.A, sys.B, sys.T))))
    sigma_bar = float(scale * np.max(np.abs(pen.slopes)))
    bound = sigma_bar * float(np.sqrt(sys.T)) * gram_norm
    x0_norm = float(np.linalg.norm(sys.x0))
    return SolvableBoundReport(sigma_bar, gram_norm, bound, x0_norm, bool(x0_norm <= bound))
