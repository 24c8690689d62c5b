import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg as sla

from multilevel_control import (
    ChannelControl,
    DynamicsClass,
    LtiSystem,
    MultilevelControl,
    adjoint_state,
    classify_dynamics,
    kalman_rank,
    mat_exp,
    simulate_forward,
)
from multilevel_control import lti, pwl
from multilevel_control.dual import DualProblem
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
            return levels[np.minimum((3 * t).astype(int), 2)]

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

    @pytest.mark.parametrize("N, K", [(4, 1), (6, 2)])
    def test_staircase_states_match_per_cell_loop(self, N, K):
        """The blocked scan reorders the products of the per-cell loop, so
        the states agree to rounding, not bit for bit."""
        sys, ctrl, grid = _synthesis_staircase(N, K, seed=N + K)
        widths = np.unique(np.diff(grid))
        # split cells beside the switch times, and widths a few ulps apart
        assert widths.size > 2 and np.min(np.diff(widths)) <= 8 * np.spacing(widths.max())
        expected = _simulate_reference(sys, ctrl, grid)
        states = simulate_forward(sys, ctrl, grid).states
        assert np.max(np.abs(states - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("cells", [1, 2, 3, 15, 16, 17])
    def test_block_padding(self, cells):
        # cell counts at, below and above a square, where the last block is padded
        sys = LtiSystem(A=A_OSC, B=B_OSC, x0=np.array([1.0, -0.5]), T=1.0)
        grid = np.linspace(0.0, 1.0, cells + 1) ** 1.5
        u = lambda t: np.sin(7.0 * t)
        expected = _simulate_reference(sys, u, grid)
        assert np.allclose(simulate_forward(sys, u, grid).states, expected, rtol=0, atol=1e-14)

    def test_control_shape_contract(self):
        grid = np.linspace(0.0, 1.0, 11)
        one = LtiSystem(A=A_OSC, B=B_OSC, x0=np.array([1.0, 0.0]), T=1.0)
        states = simulate_forward(one, lambda t: 0.5, grid).states
        assert np.array_equal(simulate_forward(one, lambda t: np.full(t.shape, 0.5), grid).states, states)
        assert np.array_equal(simulate_forward(one, lambda t: np.full((t.size, 1), 0.5), grid).states, states)
        two = LtiSystem(A=A_OSC, B=np.eye(2), x0=np.array([1.0, 0.0]), T=1.0)
        simulate_forward(two, lambda t: np.zeros((t.size, 2)), grid)
        for bad in (
            lambda t: np.array([0.1, 0.2]),  # a (K,) vector, m != K
            lambda t: np.zeros((2, t.size)),  # transposed
            lambda t: np.zeros((t.size, 3)),  # wrong K
            lambda t: np.zeros(t.size),  # one value per midpoint for two channels
        ):
            with pytest.raises(ValueError, match="control returned shape"):
                simulate_forward(two, bad, grid)

    @pytest.mark.parametrize("K", [1, 2])
    def test_multilevel_control_on_an_array(self, K):
        _, ctrl, grid = _synthesis_staircase(3, K, seed=K)
        t = np.concatenate([grid, ctrl.channels[0].switch_times])
        values = ctrl(t)
        assert values.shape == (t.size, K)
        assert np.array_equal(values, np.stack([ctrl(s) for s in t]))

    def test_one_stacked_call_per_exponential(self, monkeypatch):
        sys, ctrl, grid = _synthesis_staircase(6, 2, seed=3)
        calls = {"mat_exp": 0, "exp_action_integral": 0, "control": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("mat_exp", "exp_action_integral"):
            monkeypatch.setattr(lti, name, counted(name, getattr(lti, name)))
        simulate_forward(sys, counted("control", ctrl), grid)
        assert np.unique(np.diff(grid)).size > 2
        assert calls == {"mat_exp": 1, "exp_action_integral": 1, "control": 1}


def _synthesis_staircase(N, K, seed, nodes=4000):
    """A plant, staircase and grid built like the benchmark's synthesis
    plants: A = Q S Q^T - delta I (rotation frequencies in [0.5, 2], damping
    in [0.05, 0.3]), Gaussian B, T in [2, 4], per channel a walk of at most
    6 switches between adjacent levels of the five-segment chord ladder, and
    the quadrature nodes joined with the switch times."""
    rng = np.random.default_rng(seed)
    S = np.zeros((N, N))
    for i in range(0, N - 1, 2):
        w = rng.uniform(0.5, 2.0)
        S[i, i + 1], S[i + 1, i] = w, -w
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    A = Q @ S @ Q.T - rng.uniform(0.05, 0.3) * np.eye(N)
    T = float(rng.uniform(2.0, 4.0))
    sys = LtiSystem(A=A, B=rng.standard_normal((N, K)), x0=rng.standard_normal(N), T=T)
    ladder = np.linspace(-1.0, 1.0, 6)[:-1] + np.linspace(-1.0, 1.0, 6)[1:]
    channels = []
    for _ in range(K):
        n_switch = int(rng.integers(2, 7))
        idx = np.cumsum(np.concatenate([[2], rng.choice([-1, 1], n_switch)]))
        idx = np.clip(idx, 0, ladder.size - 1)
        idx = idx[np.concatenate([[True], np.diff(idx) != 0])]
        times = np.sort(rng.uniform(0.05 * T, 0.95 * T, idx.size - 1))
        channels.append(ChannelControl(switch_times=times, levels=ladder[idx], level_set=ladder))
    ctrl = MultilevelControl(channels=tuple(channels), scale=1.0, horizon=T)
    switches = np.concatenate([ch.switch_times for ch in channels])
    return sys, ctrl, np.union1d(np.linspace(0.0, T, nodes), switches)


def _simulate_reference(sys, u, grid):
    """simulate_forward as a per-cell loop: the control read at each cell
    midpoint, the exponentials from scalar calls once per distinct width."""
    steps = {}
    x = sys.x0
    states = [x]
    for a, b in zip(grid[:-1], grid[1:]):
        h = b - a
        if h not in steps:
            steps[h] = (mat_exp(sys.A, h), exp_action_integral(sys.A, sys.B, h))
        Ad, Bd = steps[h]
        x = Ad @ x + Bd @ np.atleast_1d(u(0.5 * (a + b)))
        states.append(x)
    return np.array(states)


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


# Plants for the propagator checks: a random one per size, the oscillator,
# and the double integrator, whose A^T is defective.
def _plants():
    rng = np.random.default_rng(11)
    plants = [(rng.standard_normal((N, N)), rng.standard_normal((N, K))) for N, K in ((3, 1), (4, 2), (6, 2))]
    return plants + [(A_OSC, B_OSC), (np.array([[0.0, 1.0], [0.0, 0.0]]), B_OSC)]


def _exp_action_integral_reference(A, B, tau):
    n, k = B.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = A
    M[:n, n:] = B
    return sla.expm(tau * M)[:n, n:]


@pytest.mark.parametrize("A, B", _plants())
def test_adjoint_rows_match_one_exponential_per_node(A, B):
    """Each row is a product of two Pade exponentials, B^T e^{(T-t_lb)A^T}
    e^{-r h A^T}, so it stays within a few eps of the row from one
    exponential at its own node, whatever the node count."""
    times = np.linspace(0.0, 3.0, 2001)
    expected = B.T @ mat_exp(A.T, 3.0 - times)
    rows = adjoint_rows(A, B, 3.0, times)
    assert rows.shape == expected.shape
    assert np.all(np.abs(rows - expected) <= 1e-13 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("A, B", _plants())
class TestBitIdentity:
    def test_propagator_map_equals_call(self, A, B):
        """at(p)(t) and the call are one computation, bit for bit, and both lie
        within 1e-12 (1 + |row|) |p| of one Pade exponential per point."""
        prop = AdjointPropagator(A, B, 3.0, np.linspace(0.0, 3.0, 601))
        p = np.linspace(-1.0, 1.2, A.shape[0])
        t = np.linspace(0.0, 3.0, 57)
        rows = B.T @ mat_exp(A.T, 3.0 - t)
        got = prop.at(p)(t)
        assert np.array_equal(prop(t, p), got)
        scale = (1.0 + np.linalg.norm(rows, axis=2)) * np.linalg.norm(p)
        assert np.all(np.abs(got - rows @ p) <= 1e-12 * scale)

    def test_stacked_exp_action_integral_equals_scalar_calls(self, A, B):
        taus = np.array([3.0, 2.2, 0.7, 1e-3, 0.0])
        stacked = exp_action_integral(A, B, taus)
        assert stacked.shape == (taus.size,) + B.shape
        for tau, got in zip(taus, stacked):
            assert np.array_equal(got, _exp_action_integral_reference(A, B, tau))
        assert np.array_equal(exp_action_integral(A, B, 2.2), stacked[1])


DOUBLE_INTEGRATOR = np.array([[0.0, 1.0], [0.0, 0.0]])
# a defective 3-state chain with two channels
CHAIN = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
# LAPACK returns the identity as eigenvectors of this A^T, which is wrong
SUBNORMAL = np.array([[0.0, 1.0], [5e-324, 1.0]])


def _assert_values_per_point(A, B, T, n, t, p):
    """Values on an n-node grid within 1e-12 (1 + |row|) |p| of one Pade
    exponential per point."""
    prop = AdjointPropagator(A, B, T, np.linspace(0.0, T, n))
    rows = B.T @ mat_exp(A.T, T - t)
    scale = (1.0 + np.linalg.norm(rows, axis=2)) * np.linalg.norm(p)
    assert np.all(np.abs(prop(t, p) - rows @ p) <= 1e-12 * scale)


def test_double_integrator_propagator_is_per_point():
    # defective A^T: no eigenbasis, the node rows and polynomial still apply
    _assert_values_per_point(DOUBLE_INTEGRATOR, B_OSC, 3.0, 4000, np.linspace(0.0, 3.0, 4001), np.array([0.3, -1.1]))


def test_chain_on_the_benchmark_grid_is_per_point():
    # the defective chain on a 4,000-node grid read at 4,001 times, most of
    # them off the nodes
    A, B = CHAIN
    _assert_values_per_point(A, B, 3.0, 4000, np.linspace(0.0, 3.0, 4001), np.linspace(-0.7, 0.4, A.shape[0]))


def test_subnormal_entry_is_per_point():
    _assert_values_per_point(SUBNORMAL, B_OSC, 1.0, 5, np.linspace(0.0, 1.0, 9), np.array([1.0, -2.0]))


@st.composite
def plants(draw):
    """(A, B, T): a random plant with N <= 6, K <= 2 and entries in [-1, 1];
    one whose A = Q S Q^T has the eigenvalue 10^-k, k in [1, 10], on the
    diagonal of its Schur form S; the double integrator; the defective
    3-state chain with two channels; or the plant with a subnormal entry."""
    family = draw(st.sampled_from(["random", "small eigenvalue", "double integrator", "chain", "subnormal"]))
    T = draw(st.floats(0.5, 4.0))
    if family == "double integrator":
        return DOUBLE_INTEGRATOR, B_OSC, T
    if family == "chain":
        return *CHAIN, T
    if family == "subnormal":
        return SUBNORMAL, B_OSC, T
    N, K = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(-1.0, 1.0, (N, N))
    if family == "small eigenvalue":
        Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        eigs = np.concatenate([[10.0 ** -draw(st.floats(1.0, 10.0))], rng.uniform(-1.0, 1.0, N - 1)])
        A = Q @ (np.triu(A, 1) + np.diag(eigs)) @ Q.T
    return A, rng.uniform(-1.0, 1.0, (N, K)), T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(plant=plants(), n=st.integers(20, 200), mult=st.integers(2, 8))
def test_propagator_matches_per_point_exponentials(plant, n, mult):
    """The propagator's rows and values at t = 0, T, the n nodes and the
    mult - 1 sub-nodes of every cell, and there the Bernstein form of each
    cell's polynomial, lie within 1e-12 (1 + |row|) (times |p| for values)
    of one Pade exponential per point: node row times a Taylor polynomial
    of the degree its remainder bound needs, on every plant, defective or
    not."""
    A, B, T = plant
    times = np.linspace(0.0, T, n)
    prop = AdjointPropagator(A, B, T, times)
    offsets = (times[1] - times[0]) * np.arange(1, mult) / mult
    t = np.concatenate([[0.0, T], times, (times[:-1, None] + offsets).reshape(-1)])
    expected = B.T @ mat_exp(A.T, T - t)
    p = np.linspace(-1.0, 1.2, A.shape[0])
    scale = 1.0 + np.linalg.norm(expected, axis=2)
    assert np.all(np.linalg.norm(prop.rows(t) - expected, axis=2) <= 1e-12 * scale)
    assert np.all(np.abs(prop(t, p) - expected @ p) <= 1e-12 * scale * np.linalg.norm(p))
    m, u = prop.degree, np.arange(1, mult) / mult
    basis = np.array([math.comb(m, j) * u**j * (1.0 - u) ** (m - j) for j in range(m + 1)])
    subs = (prop.node_rows[:-1] @ ((prop.terms @ p) @ prop.bernstein) @ basis).transpose(0, 2, 1).reshape(-1, B.shape[1])
    assert np.all(np.abs(subs - expected[n + 2 :] @ p) <= 1e-12 * scale[n + 2 :] * np.linalg.norm(p))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(plant=plants(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_exact_evaluation_psi_ends_match_exp_action_integral(plant, fractions):
    """The ends Psi(T - t) that the exact evaluation reads from the augmented
    propagator, at t = 0, T and interior times, agree with the Pade
    exponential of [[A, B], [0, 0]] within 1e-12 (1 + |Psi|)."""
    A, B, T = plant
    N, K = B.shape
    ladder = pwl.build_penalization(pwl.quadratic_profile(), pwl.Partition(np.array([-1.0, 0.0, 1.0])))
    prob = DualProblem(LtiSystem(A=A, B=B, x0=np.zeros(N), T=T), [ladder] * K)
    t = np.concatenate([[0.0], T * np.array(fractions), [T]])
    ends = prob.psi_propagator.rows(t)[:, :, :N]
    expected = np.swapaxes(exp_action_integral(A, B, T - t), 1, 2)
    scale = 1.0 + np.linalg.norm(expected, axis=(1, 2))
    assert np.all(np.linalg.norm(ends - expected, axis=(1, 2)) <= 1e-12 * scale)
