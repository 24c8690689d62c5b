"""Independent checks of the program's answers.

Nothing here imports ``multilevel_control``: terminal states come from an
exact zero-order hold (one ``scipy.linalg.expm`` per interval between
switches), ladders from the chord slopes of u^2, and Gramians from Van
Loan's block exponential.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.linalg as sla

TERMINAL_TOL = 1e-2
LEVEL_TOL = 1e-9
DIGEST_DECIMALS = 12


def chord_slopes(points) -> np.ndarray:
    """Slopes of the chords of u^2 between consecutive partition points."""
    pts = np.asarray(points, dtype=float)
    return pts[:-1] + pts[1:]


def _as_columns(B) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    return B.reshape(-1, 1) if B.ndim == 1 else B


def zoh_step(A, B, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{hA}, integral of e^{sA} B over [0, h]) from one block exponential."""
    A = np.asarray(A, dtype=float)
    B = _as_columns(B)
    n, k = B.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    E = sla.expm(h * M)
    return E[:n, :n], E[:n, n:]


def level_at(switch_times, levels, t: float) -> float:
    return float(levels[int(np.searchsorted(switch_times, t, side="right"))])


def zoh_terminal(A, B, x0, T: float, channels) -> np.ndarray:
    """Terminal state of x' = Ax + Bu under a per-channel staircase.

    ``channels`` holds one (switch_times, levels) pair per column of B.
    """
    B = _as_columns(B)
    if len(channels) != B.shape[1]:
        raise ValueError(f"{len(channels)} channel waveforms for {B.shape[1]} inputs")
    cuts = [np.asarray(st, dtype=float) for st, _ in channels]
    ts = np.unique(np.concatenate([[0.0, float(T)], *cuts]))
    ts = ts[(ts >= 0.0) & (ts <= T)]
    x = np.asarray(x0, dtype=float).copy()
    for a, b in zip(ts[:-1], ts[1:]):
        mid = 0.5 * (a + b)
        u = np.array([level_at(st, np.asarray(lv, dtype=float), mid) for st, lv in channels])
        Ad, Bd = zoh_step(A, B, b - a)
        x = Ad @ x + Bd @ u
    return x


def gramian(A, B, T: float) -> np.ndarray:
    """Integral of e^{sA} B B^T e^{sA^T} over s in [0, T] (Van Loan)."""
    A = np.asarray(A, dtype=float)
    B = _as_columns(B)
    n = A.shape[0]
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = -A
    C[:n, n:] = B @ B.T
    C[n:, n:] = A.T
    E = sla.expm(T * C)
    return E[n:, n:].T @ E[:n, n:]


def reverse_l2_norm(A, B, T: float) -> float:
    """||e^{-tau A} B||_{L^2(0,T)} with the Frobenius norm of the N x K value."""
    return float(np.sqrt(max(np.trace(gramian(-np.asarray(A, dtype=float), B, T)), 0.0)))


def quadratic_terminal(A, B, x0, T: float, p_T, factor: float = 2.0) -> np.ndarray:
    """Terminal state under u(t) = factor * B^T e^{(T-t)A^T} p_T, exactly."""
    A = np.asarray(A, dtype=float)
    return sla.expm(T * A) @ np.asarray(x0, dtype=float) + factor * gramian(A, B, T) @ np.asarray(p_T, dtype=float)


def ladder_walk(levels, ladder) -> str | None:
    """None when every level is a ladder member and every jump is between
    adjacent members; otherwise the reason."""
    ladder = np.sort(np.asarray(ladder, dtype=float))
    idx = []
    for lv in np.asarray(levels, dtype=float):
        d = np.abs(ladder - lv)
        j = int(np.argmin(d))
        if d[j] > LEVEL_TOL * max(1.0, abs(lv)):
            return f"level {lv!r} is not on the ladder"
        idx.append(j)
    for a, b in zip(idx[:-1], idx[1:]):
        if abs(a - b) != 1:
            return f"jump from ladder index {a} to {b} skips a level"
    return None


def fmt_rounded(x: float) -> str:
    return f"{round(float(x), DIGEST_DECIMALS) + 0.0:.{DIGEST_DECIMALS}f}"


def digest(lines) -> str:
    """sha256 of the newline-joined canonical answer lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
