"""Dense small-matrix machinery for the plant x' = Ax + Bu and its adjoint.

Everything here assumes desk scale (N up to ~16), so dense arithmetic is used
throughout.  Controls are piecewise constant in all intended uses, which makes
the per-interval propagation in :func:`simulate_forward` exact up to matrix
exponential accuracy (zero-order-hold discretization).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "LtiSystem",
    "Trajectory",
    "DynamicsClass",
    "mat_exp",
    "exp_action_integral",
    "gramian",
    "zoh_exp",
    "kalman_rank",
    "classify_dynamics",
    "adjoint_state",
    "simulate_forward",
    "AdjointPropagator",
    "uniform_step",
]

# numerical rank: singular values below RANK_TOL * sigma_max count as zero
RANK_TOL = 1e-10
# skew-symmetry threshold on max|A + A^T| for the conservative class
SYMMETRY_TOL = 1e-12
# threshold on eigenvalue real parts for the dissipative class
DISSIPATIVE_TOL = 1e-10


def _as_matrix(A, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


@dataclass(frozen=True)
class LtiSystem:
    """Linear time-invariant plant with initial state and control horizon.

    A is N x N, B is N x K (K control channels, a 1-d B is treated as one
    column), x0 has length N and T > 0.
    """

    A: np.ndarray
    B: np.ndarray
    x0: np.ndarray
    T: float

    def __post_init__(self):
        A = _as_matrix(self.A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        B = _as_matrix(B, "B")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 contains non-finite entries")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if x0.shape[0] != A.shape[0]:
            raise ValueError(f"x0 has length {x0.shape[0]}, expected {A.shape[0]}")
        if B.shape[1] < 1:
            raise ValueError("B must have at least one column")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "T", float(self.T))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def channels(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """State path sampled on a time grid; ``terminal`` is the last sample."""

    grid: np.ndarray
    states: np.ndarray  # shape (len(grid), N)
    terminal: np.ndarray = field(default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.shape[0] != grid.shape[0]:
            raise ValueError("states and grid must have the same length")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "terminal", states[-1].copy())

    @property
    def terminal_norm(self) -> float:
        return float(np.linalg.norm(self.terminal))


class DynamicsClass(enum.Enum):
    CONSERVATIVE = "conservative"
    DISSIPATIVE = "dissipative"
    GENERAL = "general"


def mat_exp(A, t) -> np.ndarray:
    """e^{tA} by scaling-and-squaring (scipy's Pade implementation), or a
    (len(t), N, N) stack of them from one call for an array of ``t``."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix exponential needs a square matrix, got {A.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    return sla.expm(np.asarray(t, dtype=float)[..., None, None] * A)


def zoh_exp(A, B, tau) -> np.ndarray:
    """The exponential of tau [[A, B], [0, 0]]: its blocks are e^{tau A}
    (top left) and the integral of e^{sA} B over s in [0, tau] (top right).

    ``tau`` may be an array: the result then stacks one (N+K) x (N+K)
    exponential per entry, from a single ``scipy.linalg.expm`` call whose
    slices equal the scalar calls bit for bit.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n, k = B.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    return sla.expm(np.asarray(tau, dtype=float)[..., None, None] * M)


def exp_action_integral(A, B, tau) -> np.ndarray:
    """Integral of e^{sA} B over s in [0, tau], as an N x K matrix, or as a
    (len(tau), N, K) stack for an array of ``tau``.

    Read off one exponential of the block matrix [[A, B], [0, 0]]
    (:func:`zoh_exp`), which also stays correct for singular A.
    """
    n = np.shape(A)[0]
    return zoh_exp(A, B, tau)[..., :n, n:]


def gramian(A, B, T: float) -> np.ndarray:
    """The integral of e^{sA} B B^T e^{sA^T} over s in [0, T], read off one
    exponential E of T [[-A, B B^T], [0, A^T]] as E_22^T E_12 (Van Loan,
    IEEE TAC 1978)."""
    A = _as_matrix(A)
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    E = sla.expm(T * np.block([[-A, B @ B.T], [np.zeros_like(A), A.T]]))
    W = E[n:, n:].T @ E[:n, n:]
    return 0.5 * (W + W.T)


def kalman_rank(A, B) -> int:
    """Rank of the controllability matrix [B | AB | ... | A^{N-1} B]."""
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
        raise ValueError("inconsistent dimensions for the controllability test")
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    sv = np.linalg.svd(ctrb, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_TOL * sv[0]))


def classify_dynamics(A) -> DynamicsClass:
    """Conservative (A skew-symmetric), dissipative (spectrum in the open
    left half-plane), or general."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("classification needs a square matrix")
    if np.max(np.abs(A + A.T)) <= SYMMETRY_TOL:
        return DynamicsClass.CONSERVATIVE
    eigs = np.linalg.eigvals(A)
    if np.max(eigs.real) < -DISSIPATIVE_TOL:
        return DynamicsClass.DISSIPATIVE
    return DynamicsClass.GENERAL


def adjoint_state(sys: LtiSystem, p_T, t: float) -> np.ndarray:
    """Backward adjoint solution p(t) = e^{(T-t)A^T} p_T for 0 <= t <= T."""
    p_T = np.asarray(p_T, dtype=float).reshape(-1)
    if p_T.shape[0] != sys.dim:
        raise ValueError("p_T has the wrong length")
    if not (0.0 <= t <= sys.T):
        raise ValueError(f"t={t} lies outside [0, {sys.T}]")
    return mat_exp(sys.A.T, sys.T - t) @ p_T


def simulate_forward(sys: LtiSystem, u, grid) -> Trajectory:
    """Propagate x' = Ax + Bu through every grid cell with the control held
    at its value at the cell midpoint (exact for controls that are constant
    per cell).

    ``u`` is a callable t -> scalar (single channel) or length-K vector.
    The grid must start at 0, end at T and be strictly increasing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - sys.T) > 1e-12 * max(1.0, sys.T):
        raise ValueError("grid must cover [0, T]")

    n, k = sys.dim, sys.channels
    steps = {}

    def step_ops(h):
        key = float(h)
        if key not in steps:
            steps[key] = (mat_exp(sys.A, h), exp_action_integral(sys.A, sys.B, h))
        return steps[key]

    states = np.empty((grid.size, n))
    states[0] = sys.x0
    x = sys.x0.copy()
    for i in range(grid.size - 1):
        h = grid[i + 1] - grid[i]
        Ad, Bd = step_ops(h)
        ui = np.atleast_1d(np.asarray(u(0.5 * (grid[i] + grid[i + 1])), dtype=float))
        if ui.shape[0] != k:
            raise ValueError(f"control returned {ui.shape[0]} values, expected {k}")
        x = Ad @ x + Bd @ ui
        states[i + 1] = x
    return Trajectory(grid=grid, states=states)


class AdjointPropagator:
    """Fast evaluation of q(t) = B^T e^{(T-t)A^T} p at arbitrary times.

    Uses the spectral decomposition of A^T when it is well conditioned and
    falls back to one stacked matrix exponential over all times otherwise.
    """

    def __init__(self, A, B, T: float):
        self.A = _as_matrix(A)
        B = np.asarray(B, dtype=float)
        self.B = B.reshape(-1, 1) if B.ndim == 1 else B
        self.T = float(T)
        self._spectral = None
        try:
            lam, V = np.linalg.eig(self.A.T)
            # subnormal entries can make LAPACK return wrong eigenvectors
            residual = np.linalg.norm(self.A.T @ V - V * lam)
            if np.linalg.cond(V) < 1e8 and residual <= 1e-10 * (1.0 + np.linalg.norm(self.A)):
                self._spectral = (lam, V, np.linalg.inv(V))
        except np.linalg.LinAlgError:
            pass

    def at(self, p):
        """The map t -> B^T e^{(T-t)A^T} p, values of shape (len(t), K).

        The modal coordinates V^{-1} p are formed once here, so repeated
        evaluations at one datum (bisection steps, segment probes) skip
        them.
        """
        p = np.asarray(p, dtype=float).reshape(-1)
        if self._spectral is not None:
            lam, V, Vinv = self._spectral
            z = Vinv @ p.astype(complex)

            def q(t):
                t = np.atleast_1d(np.asarray(t, dtype=float))
                E = np.exp(np.multiply.outer(self.T - t, lam))
                return np.real(((E * z) @ V.T) @ self.B)

            return q

        def q(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return self.B.T @ sla.expm((self.T - t)[:, None, None] * self.A.T) @ p

        return q

    def __call__(self, t, p) -> np.ndarray:
        """Values of B^T e^{(T-t)A^T} p, shape (len(t), K)."""
        return self.at(p)(t)

    def rows(self, t) -> np.ndarray:
        """The matrices B^T e^{(T-t)A^T} at the times ``t``, shape (len(t), K, N)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self._spectral is not None:
            lam, V, Vinv = self._spectral
            E = np.exp(np.multiply.outer(self.T - t, lam))
            return np.real(((self.B.T @ V) * E[:, None, :]) @ Vinv)
        return self.B.T @ sla.expm((self.T - t)[:, None, None] * self.A.T)


def adjoint_rows(A, B, T: float, times) -> np.ndarray:
    """Matrices B^T e^{(T-t_i)A^T} stacked as an array of shape (n, K, N).

    ``times`` must be uniformly spaced; the propagators e^{(T-t_i)A^T} are
    built by a one-step recurrence, so that only two exponentials are ever
    formed, and then multiplied by B^T in one stacked product.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    times = np.asarray(times, dtype=float)
    h = uniform_step(times)
    step = sla.expm(-h * A.T)
    Ms = np.empty((times.size,) + A.shape)
    Ms[0] = sla.expm((T - times[0]) * A.T)
    for i in range(times.size - 1):
        np.matmul(step, Ms[i], out=Ms[i + 1])
    return B.T @ Ms


def uniform_step(times) -> float:
    """The spacing of a uniform time grid; raises on a non-uniform one."""
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    if times.size > 2 and np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(h, 1.0):
        raise ValueError("adjoint_rows needs a uniform grid")
    return h
