"""Dense small-matrix machinery for the plant x' = Ax + Bu and its adjoint.

Everything here assumes desk scale (N up to ~16), so dense arithmetic is used
throughout.  Controls are piecewise constant in all intended uses, which makes
the per-interval propagation in :func:`simulate_forward` exact up to matrix
exponential accuracy (zero-order-hold discretization); it samples the control
once on all cell midpoints and forms the exponentials of all widths in one stack.
No loop runs once per node or per cell: :func:`adjoint_rows` and :func:`simulate_forward`
work in sqrt(n) blocks (Blelloch, *Prefix sums and their applications*, 1990).
The adjoint observation at any other time is one node row times a short
Taylor polynomial (:class:`AdjointPropagator`).
"""

from __future__ import annotations

import enum
import math
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


def exp_action_integral(A, B, tau) -> np.ndarray:
    """Integral of e^{sA} B over s in [0, tau], as an N x K matrix, or as a
    (len(tau), N, K) stack for an array of ``tau``.

    Read off the top right block of one exponential of tau [[A, B], [0, 0]]
    (one ``scipy.linalg.expm`` call for a whole stack, whose slices equal
    the scalar calls bit for bit), which also stays correct for singular A.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    B = B.reshape(-1, 1) if B.ndim == 1 else B
    n, k = B.shape
    M = np.block([[A, B], [np.zeros((k, n + k))]])
    return sla.expm(np.asarray(tau, dtype=float)[..., None, None] * M)[..., :n, n:]


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

    The cells are scanned in blocks of b = floor(sqrt(m)): b steps over all
    blocks at once form each block's map x -> Phi x + y, a loop over the
    blocks carries the state across them, and b more steps fill in every
    state.  This reorders the products of stepping cell by cell.

    ``u`` is called once, on the array of the m cell midpoints, and returns
    an (m, K) array, an (m,) array when K = 1, or a 0-d constant; any other
    shape raises ``ValueError``.  The grid must start at 0, end at T and be
    strictly increasing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must contain at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if abs(grid[0]) > 1e-12 or abs(grid[-1] - sys.T) > 1e-12 * max(1.0, sys.T):
        raise ValueError("grid must cover [0, T]")

    m, k = grid.size - 1, sys.channels
    U = np.asarray(u(0.5 * (grid[:-1] + grid[1:])), dtype=float)
    if U.ndim == 0 or k == 1 and U.shape == (m,):
        U = np.full((m, k), U.reshape(-1, 1))
    if U.shape != (m, k):
        raise ValueError(f"control returned shape {U.shape} at {m} midpoints, expected ({m}, {k})")
    widths, cls = np.unique(np.diff(grid), return_inverse=True)
    n, b = sys.dim, max(1, int(np.sqrt(m)))
    L = -(-m // b)
    # an identity step (index widths.size) pads the cells to L blocks of b
    Ad = np.concatenate([mat_exp(sys.A, widths), np.eye(n)[None]])
    cls = np.concatenate([cls, np.full(L * b - m, widths.size)])
    F = np.zeros((L * b, n, 1))
    np.matmul(exp_action_integral(sys.A, sys.B, widths)[cls[:m]], U[:, :, None], out=F[:m])
    F, cls = F.reshape(L, b, n, 1), cls.reshape(L, b)

    # each block's map x -> Phi x + y, then the block starts, then every state
    Phi, y = np.eye(n), np.zeros((L, n, 1))
    for r in range(b):
        step = Ad[cls[:, r]]
        Phi, y = step @ Phi, step @ y + F[:, r]
    x = np.broadcast_to(sys.x0[:, None], (L, n, 1)).copy()
    for l in range(L - 1):
        x[l + 1] = Phi[l] @ x[l] + y[l]
    states = np.empty((L * b + 1, n))
    states[0] = sys.x0
    for r in range(b):
        x = Ad[cls[:, r]] @ x + F[:, r]
        states[1 + r :: b] = x[:, :, 0]
    return Trajectory(grid=grid, states=states[: m + 1])


class AdjointPropagator:
    """q(t) = B^T e^{(T-t)A^T} p at any t in [0, T], from the node rows on
    the uniform grid ``times``.

    The rows R_i = B^T e^{(T-t_i)A^T} (:attr:`node_rows`) are formed once by
    :func:`adjoint_rows`.  A time t reads the node t_i at or below it, so
    that delta = t - t_i lies in [0, h], and R_i e^{-delta A^T} is the
    Taylor polynomial R_i sum_k (-delta)^k (A^T)^k / k!.  Its degree m is the
    smallest with (|A|_2 h)^{m+1} / (m+1)! e^{|A|_2 h} <= eps, which bounds
    the remainder relative to |R_i| (Moler & Van Loan, SIAM Review 45,
    2003); the rounding of the sum grows like e^{|A|_2 h}.  On the cell
    [t_i, t_i + h] the same polynomial in the Bernstein basis of degree m
    has the coefficients R_i (``terms @ p``) @ :attr:`bernstein` (Farouki &
    Rajan, CAGD 4, 1987).
    """

    def __init__(self, A, B, T: float, times):
        A = _as_matrix(A)
        self.times = np.asarray(times, dtype=float)
        self.h = uniform_step(self.times)
        self.node_rows = adjoint_rows(A, B, T, self.times)
        a, m = float(np.linalg.norm(A, 2)) * self.h, 0
        while a > 0.0 and (m + 1) * np.log(a) - math.lgamma(m + 2) + a > np.log(np.finfo(float).eps):
            m += 1
        terms = [np.eye(A.shape[0])]
        for k in range(1, m + 1):
            terms.append(terms[-1] @ A.T / k)
        # (A^T)^k / k! side by side: terms[:, k] is the k-th, k = 0 ... m
        self.degree, self.terms = m, np.stack(terms, axis=1)
        # power to Bernstein coefficients on [t_i, t_i + h]: C(j, k) / C(m, k) (-h)^k at [k, j]
        self.bernstein = np.array([[math.comb(j, k) / math.comb(m, k) * (-self.h) ** k for j in range(m + 1)] for k in range(m + 1)])

    def _locate(self, t):
        """The node index i at or below each time and the powers (-delta)^k,
        k = 0 ... m, of the offset delta = t - t_i, (len(t), m + 1)."""
        t = np.asarray(t, dtype=float).reshape(-1)
        i = np.minimum(np.maximum(((t - self.times[0]) / self.h).astype(np.intp), 0), self.times.size - 1)
        powers = np.empty((t.size, self.degree + 1))
        powers[:, 0] = 1.0
        np.negative((t - self.times[i])[:, None], out=powers[:, 1:])
        return i, np.multiply.accumulate(powers, axis=1, out=powers)

    def at(self, p):
        """The map t -> B^T e^{(T-t)A^T} p, values of shape (len(t), K).  The
        node values R_i (A^T)^k p / k! are formed here in one product, so each
        evaluation is a gather and a polynomial in delta led by R_i p."""
        n, k, N = self.node_rows.shape
        S = (self.node_rows.reshape(-1, N) @ (self.terms @ np.asarray(p, dtype=float).reshape(-1))).reshape(n, k, -1)

        def q(t):
            i, powers = self._locate(t)
            return (S[i] @ powers[:, :, None])[:, :, 0]

        return q

    def __call__(self, t, p) -> np.ndarray:
        """Values of B^T e^{(T-t)A^T} p, shape (len(t), K)."""
        return self.at(p)(t)

    def rows(self, t) -> np.ndarray:
        """The matrices B^T e^{(T-t)A^T} at the times ``t``, shape (len(t),
        K, N), from one product of the node rows with all terms side by side."""
        i, powers = self._locate(t)
        k, N = self.node_rows.shape[1:]
        products = self.node_rows[i].reshape(-1, N) @ self.terms.reshape(N, -1)
        return (powers[:, None, None] @ products.reshape(-1, k, self.degree + 1, N))[:, :, 0]


def adjoint_rows(A, B, T: float, times) -> np.ndarray:
    """Matrices B^T e^{(T-t_i)A^T} stacked as an array of shape (n, K, N).

    ``times`` must be uniformly spaced.  With b = floor(sqrt(n)), node
    i = l b + r gets B^T e^{(T-t_{lb})A^T} e^{-r h A^T}, from one stacked
    exponential at the block starts, one at the b sub-steps and one product.
    """
    A = _as_matrix(A)
    B = np.asarray(B, dtype=float)
    B = B.reshape(-1, 1) if B.ndim == 1 else B
    times = np.asarray(times, dtype=float)
    h = uniform_step(times)
    b = max(1, int(np.sqrt(times.size)))
    heads = B.T @ mat_exp(A.T, T - times[::b])
    subs = mat_exp(A.T, -h * np.arange(b))
    rows = heads[:, None] @ subs
    return rows.reshape(-1, *heads.shape[1:])[: times.size]


def uniform_step(times) -> float:
    """The spacing of a uniform time grid; raises on a non-uniform one."""
    times = np.asarray(times, dtype=float)
    h = times[1] - times[0]
    if times.size > 2 and np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(h, 1.0):
        raise ValueError("adjoint_rows needs a uniform grid")
    return h
