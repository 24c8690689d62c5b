import numpy as np
import pytest

import scipy.linalg as sla

from multilevel_control import (
    DynamicsClass,
    LtiSystem,
    adjoint_state,
    classify_dynamics,
    kalman_rank,
    mat_exp,
    simulate_forward,
)
from multilevel_control.lti import AdjointPropagator, adjoint_rows, exp_action_integral, gramian

A_OSC = np.array([[0.0, 1.0], [-1.0, 0.0]])
B_OSC = np.array([[0.0], [1.0]])


def taylor_exp(A, t, terms=60):
    """Truncated-series oracle for e^{tA}."""
    n = A.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ (t * A) / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp(np.zeros((2, 2)), 5.0), np.eye(2), atol=1e-15)

    def test_rotation_closed_form(self):
        for t in (0.3, 1.0, 4.0, -2.5):
            expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
            got = mat_exp(A_OSC, t)
            assert np.allclose(got, expected, atol=1e-13)
            assert np.allclose(got, taylor_exp(A_OSC, t), atol=1e-12)

    def test_scalar(self):
        assert mat_exp(np.array([[1.0]]), 1.0)[0, 0] == pytest.approx(np.e, rel=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)), 1.0)

    def test_stacked_times_equal_scalar_calls(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        ts = np.array([-0.75, 0.0, 1e-3, 2.5])
        stacked = mat_exp(A, ts)
        assert stacked.shape == (ts.size, 4, 4)
        for t, got in zip(ts, stacked):
            assert np.array_equal(got, mat_exp(A, t))
            assert np.array_equal(got, sla.expm(t * A))
        with pytest.raises(ValueError, match="finite"):
            mat_exp(A, np.array([1.0, np.nan]))

    def test_series_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            A *= 2.0 / max(np.linalg.norm(A, 2), 1e-12)
            t = rng.uniform(-1.5, 1.5)
            assert np.allclose(mat_exp(A, t), taylor_exp(A, t), atol=1e-10)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.standard_normal((3, 3))
            A *= 2.0 / max(np.linalg.norm(A, 2), 1e-12)
            s, t = rng.uniform(0, 2, size=2)
            assert np.allclose(
                mat_exp(A, s + t), mat_exp(A, s) @ mat_exp(A, t), atol=1e-10
            )


class TestKalmanRank:
    def test_oscillator_controllable(self):
        assert kalman_rank(A_OSC, B_OSC) == 2

    def test_all_zero(self):
        assert kalman_rank(np.zeros((2, 2)), np.zeros((2, 1))) == 0

    def test_uncontrollable_diagonal(self):
        # [B | AB] = [[1, 1], [0, 0]] has rank 1
        assert kalman_rank(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]])) == 1

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 3
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, 1))
            S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            if np.linalg.cond(S) > 1e3:
                continue
            r1 = kalman_rank(A, B)
            r2 = kalman_rank(S @ A @ np.linalg.inv(S), S @ B)
            assert r1 == r2


class TestClassifyDynamics:
    def test_oscillator_conservative(self):
        assert classify_dynamics(A_OSC) is DynamicsClass.CONSERVATIVE

    def test_negative_identity_dissipative(self):
        assert classify_dynamics(-np.eye(3)) is DynamicsClass.DISSIPATIVE

    def test_expansive_scalar_general(self):
        assert classify_dynamics(np.array([[1.0]])) is DynamicsClass.GENERAL


class TestAdjointState:
    def setup_method(self):
        self.sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.array([-1.0, 0.5]), T=4.0)

    def test_terminal_time_identity(self):
        p_T = np.array([0.3, -0.7])
        assert np.allclose(adjoint_state(self.sys, p_T, 4.0), p_T, atol=1e-14)

    def test_zero_generator_constant(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=B_OSC, x0=np.zeros(2), T=1.0)
        p_T = np.array([1.0, 2.0])
        for t in (0.0, 0.4, 1.0):
            assert np.allclose(adjoint_state(sys, p_T, t), p_T, atol=1e-15)

    def test_scalar_growth(self):
        sys = LtiSystem(A=np.array([[1.0]]), B=np.array([[1.0]]), x0=np.array([0.0]), T=1.0)
        for t in (0.0, 0.25, 1.0):
            got = adjoint_state(sys, np.array([0.7]), t)
            assert got[0] == pytest.approx(np.exp(1.0 - t) * 0.7, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            adjoint_state(self.sys, np.zeros(2), 4.5)

    def test_pairing_identity(self):
        # <x(T), p_T> = <x0, p(0)> for the free flow
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            sys = LtiSystem(A=A, B=np.ones((3, 1)), x0=rng.standard_normal(3), T=1.3)
            p_T = rng.standard_normal(3)
            grid = np.linspace(0, sys.T, 9)
            traj = simulate_forward(sys, lambda t: 0.0, grid)
            lhs = traj.terminal @ p_T
            rhs = sys.x0 @ adjoint_state(sys, p_T, 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


class TestSimulateForward:
    def test_zero_dynamics_zero_control(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=B_OSC, x0=np.array([3.0, -1.0]), T=2.0)
        traj = simulate_forward(sys, lambda t: 0.0, np.linspace(0, 2, 21))
        assert np.allclose(traj.states, sys.x0, atol=1e-15)

    def test_scalar_constant_control(self):
        # x' = x + c, x(0) = 0  ->  x(T) = c (e^T - 1)
        sys = LtiSystem(A=np.array([[1.0]]), B=np.array([[1.0]]), x0=np.array([0.0]), T=1.5)
        c = 0.8
        traj = simulate_forward(sys, lambda t: c, np.linspace(0, 1.5, 31))
        assert traj.terminal[0] == pytest.approx(c * (np.exp(1.5) - 1.0), rel=1e-12)

    def test_conservative_norm_preserved(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.array([-1.0, 0.5]), T=6.0)
        traj = simulate_forward(sys, lambda t: 0.0, np.linspace(0, 6, 101))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-8

    def test_grid_validation(self):
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.zeros(2), T=1.0)
        with pytest.raises(ValueError):
            simulate_forward(sys, lambda t: 0.0, np.array([0.0, 0.5, 0.9]))
        with pytest.raises(ValueError):
            simulate_forward(sys, lambda t: 0.0, np.array([0.0, 0.6, 0.4, 1.0]))

    def test_matches_variation_of_constants(self):
        # piecewise-constant control, randomized system: exact per-interval
        # propagation must match the integral formula evaluated by quadrature
        rng = np.random.default_rng(9)
        A = rng.standard_normal((2, 2))
        sys = LtiSystem(A=A, B=np.array([[0.5], [1.0]]), x0=rng.standard_normal(2), T=1.0)
        levels = np.array([0.7, -0.4, 1.2])

        def u(t):
            return levels[min(int(3 * t), 2)]

        grid = np.linspace(0, 1, 31)
        grid = np.union1d(grid, [1 / 3, 2 / 3])
        traj = simulate_forward(sys, u, grid)
        # dense quadrature oracle for the Duhamel integral, one smooth span
        # per constant-control interval
        integral = np.zeros(2)
        for a, b, lv in ((0, 1 / 3, levels[0]), (1 / 3, 2 / 3, levels[1]), (2 / 3, 1, levels[2])):
            tt = np.linspace(a, b, 4001)
            vals = np.stack([mat_exp(A, 1 - t) @ sys.B[:, 0] * lv for t in tt])
            integral += np.trapezoid(vals, tt, axis=0)
        expected = mat_exp(A, 1.0) @ sys.x0 + integral
        assert np.allclose(traj.terminal, expected, atol=5e-8)


class TestGramian:
    @pytest.mark.parametrize("N, K, T", [(2, 1, 0.7), (3, 2, 1.7), (6, 1, 2.0), (6, 3, 3.5)])
    def test_lyapunov_residual(self, N, K, T):
        # d/ds e^{sA} B B^T e^{sA^T} integrates to A W + W A^T over [0, T]
        rng = np.random.default_rng(N * 10 + K)
        A = rng.uniform(-1.0, 1.0, (N, N))
        B = rng.uniform(-1.0, 1.0, (N, K))
        W = gramian(A, B, T)
        E = sla.expm(T * A)
        end = E @ B @ B.T @ E.T
        residual = A @ W + W @ A.T + B @ B.T - end
        scale = np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(end) + 1.0
        assert np.linalg.norm(residual) <= 1e-13 * scale
        assert np.array_equal(W, W.T) and np.min(np.linalg.eigvalsh(W)) > 0

    def test_oscillator_over_one_period(self):
        assert np.allclose(gramian(A_OSC, B_OSC, 2 * np.pi), np.pi * np.eye(2), rtol=0, atol=1e-13)

    def test_one_dimensional_B_is_a_column(self):
        assert np.array_equal(gramian(A_OSC, B_OSC[:, 0], 1.3), gramian(A_OSC, B_OSC, 1.3))


# Plants for the bit-identity checks: a random one per size, the oscillator,
# and the double integrator, whose defective A^T sends the propagator to its
# stacked exponential path.
def _plants():
    rng = np.random.default_rng(11)
    plants = [(rng.standard_normal((N, N)), rng.standard_normal((N, K))) for N, K in ((3, 1), (4, 2), (6, 2))]
    return plants + [(A_OSC, B_OSC), (np.array([[0.0, 1.0], [0.0, 0.0]]), B_OSC)]


def _adjoint_rows_reference(A, B, T, times):
    """adjoint_rows as a per-node loop: B^T M_i with M_{i+1} = e^{-hA^T} M_i."""
    step = sla.expm(-(times[1] - times[0]) * A.T)
    M = sla.expm((T - times[0]) * A.T)
    out = np.empty((times.size, B.shape[1], A.shape[0]))
    for i in range(times.size):
        out[i] = B.T @ M
        M = step @ M
    return out


def _propagator_reference(prop, t, p):
    """B^T e^{(T-t)A^T} p from the modal coordinates formed per call, or
    one exponential per point."""
    if prop._spectral is not None:
        lam, V, Vinv = prop._spectral
        z = Vinv @ p.astype(complex)
        E = np.exp(np.multiply.outer(prop.T - t, lam))
        return np.real(((E * z) @ V.T) @ prop.B)
    return np.stack([prop.B.T @ mat_exp(prop.A.T, prop.T - ti) @ p for ti in t])


def _exp_action_integral_reference(A, B, tau):
    n, k = B.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    return sla.expm(tau * M)[:n, n:]


@pytest.mark.parametrize("A, B", _plants())
class TestBitIdentity:
    def test_adjoint_rows_equal_per_node_loop(self, A, B):
        times = np.linspace(0.0, 3.0, 2001)
        assert np.array_equal(adjoint_rows(A, B, 3.0, times), _adjoint_rows_reference(A, B, 3.0, times))

    def test_propagator_map_equals_call(self, A, B):
        prop = AdjointPropagator(A, B, 3.0)
        p = np.linspace(-1.0, 1.2, A.shape[0])
        t = np.linspace(0.0, 3.0, 57)
        expected = _propagator_reference(prop, t, p)
        assert np.array_equal(prop.at(p)(t), expected)
        assert np.array_equal(prop(t, p), expected)

    def test_stacked_exp_action_integral_equals_scalar_calls(self, A, B):
        taus = np.array([3.0, 2.2, 0.7, 1e-3, 0.0])
        stacked = exp_action_integral(A, B, taus)
        assert stacked.shape == (taus.size,) + B.shape
        for tau, got in zip(taus, stacked):
            assert np.array_equal(got, _exp_action_integral_reference(A, B, tau))
        assert np.array_equal(exp_action_integral(A, B, 2.2), stacked[1])


def test_double_integrator_propagator_is_per_point():
    assert AdjointPropagator(np.array([[0.0, 1.0], [0.0, 0.0]]), B_OSC, 3.0)._spectral is None


def test_stacked_fallback_equals_per_point_exponentials():
    # a defective 3-state chain with two channels: one stacked expm over all
    # times, bit for bit the per-point exponentials
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    prop = AdjointPropagator(A, B, 3.0)
    assert prop._spectral is None
    p = np.linspace(-0.7, 0.4, A.shape[0])
    t = np.linspace(0.0, 3.0, 4001)
    expected = np.stack([B.T @ mat_exp(A.T, 3.0 - ti) @ p for ti in t])
    assert np.array_equal(prop(t, p), expected)


def test_subnormal_entry_falls_back_to_exponentials():
    # LAPACK returns the identity as eigenvectors of this A^T, which is wrong
    A = np.array([[0.0, 1.0], [5e-324, 1.0]])
    prop = AdjointPropagator(A, B_OSC, 1.0)
    assert prop._spectral is None
    p = np.array([1.0, -2.0])
    t = np.linspace(0.0, 1.0, 5)
    expected = np.stack([B_OSC.T @ mat_exp(A.T, 1.0 - ti) @ p for ti in t])
    assert np.allclose(prop(t, p), expected, rtol=1e-12, atol=0)
