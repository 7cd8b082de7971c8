"""IMEX stepping, flows, tangent/adjoint consistency, contraction checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forwardreg.evolution import (
    OperatorSolver,
    Plant,
    adjoint_tangent_flow,
    flow,
    forward_sweep,
    horizons,
    reverse_sweep,
    tangent_flow,
    trapezoid_weights,
)
from forwardreg.forwarding import build_forwarding
from forwardreg.plants import make_linear_benchmark, make_sine_gordon, make_wilson_cowan
from forwardreg.regulator import Scenario, simulate
from forwardreg.spaces import SpaceSpec
from forwardreg.verify import contraction_samples, estimate_alpha
from helpers import make_random_plant, make_scalar_plant


def test_flow_scalar_hand_value():
    # hand computation: (I + dt a) w' = w - dt c w^3 with dt=0.01, w=1:
    # w' = (1 - 0.001) / 1.02
    p = make_scalar_plant(a=2.0, c=0.1)
    w1 = flow(p, np.array([1.0]), 0.01, 0.01)[1]
    assert w1[0] == pytest.approx((1.0 - 0.001) / 1.02, rel=1e-14)


def test_flow_rejects_bad_dt():
    p = make_scalar_plant()
    with pytest.raises(ValueError):
        flow(p, np.array([1.0]), 1.0, -0.1)
    with pytest.raises(ValueError):
        flow(p, np.array([1.0]), 10.0, 10.0)  # dt * lip_F >= 1


def test_flow_matches_bernoulli_closed_form():
    # frozen from tests/oracles/bernoulli_flow.py (a=2, c=0.1, w0=1, T=0.5)
    wT_exact = 0.36017603332176756
    p = make_scalar_plant(a=2.0, c=0.1)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = flow(p, np.array([1.0]), 0.5, dt)
        errs.append(abs(traj[-1, 0] - wT_exact))
    # first-order scheme: error halves with dt
    assert errs[0] < 5e-3
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 0.9 and order2 > 0.9


def test_trajectory_grid():
    p = make_scalar_plant()
    # T / dt rounds to 10 steps: the states at 0, 0.1, ..., 1.0
    traj = flow(p, np.array([0.5]), 1.0, 0.1)
    assert traj.shape == (11, 1)
    assert traj[0, 0] == 0.5
    assert flow(p, np.array([0.5]), 0.96, 0.1).shape == (11, 1)


def test_apply_nonlinear_A():
    p = make_scalar_plant(a=2.0, c=0.1)
    w = np.array([2.0])
    assert (p.A @ w + p.F(w))[0] == pytest.approx(2.0 * 2.0 + 0.1 * 8.0)


def test_tangent_flow_matches_finite_difference():
    p = make_random_plant()
    rng = np.random.default_rng(31)
    w0 = rng.standard_normal(p.dim) * 0.5
    h = rng.standard_normal(p.dim)
    T, dt = 1.0, 0.01
    base = flow(p, w0, T, dt)
    v = tangent_flow(p, base, dt, h)
    eps = 1e-6
    fp = flow(p, w0 + eps * h, T, dt)
    fm = flow(p, w0 - eps * h, T, dt)
    fd = (fp[-1] - fm[-1]) / (2 * eps)
    np.testing.assert_allclose(v[-1], fd, atol=1e-7)


def test_adjoint_tangent_duality_exact():
    # (v_n, zeta)_H == (h, r)_H to roundoff: the adjoint is that of the exact
    # discrete tangent steps, not of the continuous equation
    p = make_random_plant(dim=7, seed=9)
    rng = np.random.default_rng(41)
    w0 = rng.standard_normal(p.dim) * 0.3
    dt = 0.02
    base = flow(p, w0, 0.8, dt)
    for _ in range(5):
        h = rng.standard_normal(p.dim)
        zeta = rng.standard_normal(p.dim)
        v = tangent_flow(p, base, dt, h)
        r = adjoint_tangent_flow(p, base, dt, zeta)
        lhs = p.space_H.inner(v[-1], zeta)
        rhs = p.space_H.inner(h, r)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def sweep_step(rng, dim, blocks):
    """The step of a random A at a random dt, with S and K drawn as identity
    blocks (S = [0 I 0], K = g [0; I; 0]) when ``blocks``, else dense."""
    if blocks:
        m = int(rng.integers(1, dim + 1))
        S = np.eye(m, dim, k=int(rng.integers(0, dim - m + 1)))
        K = rng.uniform(0.1, 2.0) * np.eye(dim, m, k=-int(rng.integers(0, dim - m + 1)))
    else:
        m = int(rng.integers(1, 9))
        K = rng.standard_normal((dim, m))
        S = rng.standard_normal((m, dim))
    a = rng.standard_normal((dim, dim)) / np.sqrt(dim) + 3.0 * np.eye(dim)
    return OperatorSolver(a, K, S).step(float(rng.uniform(0.01, 1.0))), K, S


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(1, 10), blocks=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_reverse_sweep_is_the_exact_transpose(dim, n, blocks, seed):
    # psi . K q == x_0 . r_0 for J_k = K diag(D_k) S, with S and K gathered
    # and scattered or dense
    rng = np.random.default_rng(seed)
    step, K, S = sweep_step(rng, dim, blocks)
    D = rng.standard_normal((n + 1, K.shape[1]))
    x0, psi = rng.standard_normal((2, dim))
    c = trapezoid_weights(n)
    _, qs, _ = forward_sweep(step, x0, lambda k, y: D[k] * y, c)
    r0 = reverse_sweep(step, D, psi, c)
    assert r0.shape == (dim,)
    assert psi @ (K @ qs) == pytest.approx(x0 @ r0, rel=1e-10)
    # a (dim, c) block sweeps each column as its own vector sweep would
    psis = rng.standard_normal((dim, 3))
    block = reverse_sweep(step, D, psis, c)
    for j in range(3):
        col = reverse_sweep(step, D, psis[:, j], c)
        np.testing.assert_allclose(block[:, j], col, rtol=1e-12,
                                   atol=1e-12 * np.abs(col).max())


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(0, 10), blocks=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_reverse_sweep_is_the_transpose_for_any_weight_table(dim, n, blocks, seed):
    # psi . K q == x_0 . r_0 for nonnegative weights of any rule, zeros
    # included, not only the trapezoid rule's: for a vector, a (dim, 3)
    # block of directions and a (dim, 3) block of states whose own table
    # has a column of zero weights
    rng = np.random.default_rng(seed)
    step, K, S = sweep_step(rng, dim, blocks)
    m = K.shape[1]

    def table(*shape):
        return rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.8)

    def assert_dual(x0, psi, qs, r0):
        lhs, rhs = np.sum(psi * (K @ qs), axis=0), np.sum(x0 * r0, axis=0)
        scale = np.sum(np.abs(psi) * np.abs(K @ qs), axis=0)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12 * scale.max())

    c, D = table(n + 1), rng.standard_normal((n + 1, m))
    x0, psi = rng.standard_normal((2, dim))
    _, qs, realized = forward_sweep(step, x0, lambda k, y: D[k] * y, c)
    assert np.array_equal(realized, c)
    assert_dual(x0, psi, qs, reverse_sweep(step, D, psi, c))
    x0, psi = rng.standard_normal((2, dim, 3))
    _, qs, _ = forward_sweep(step, x0, lambda k, y: D[k][:, None] * y, c)
    assert_dual(x0, psi, qs, reverse_sweep(step, D, psi, c))
    cs, Ds = table(n + 1, 3), rng.standard_normal((n + 1, m, 3))
    cs[:, 1] = 0.0
    _, qs, _ = forward_sweep(step, x0, lambda k, y: Ds[k] * y, cs)
    r0 = reverse_sweep(step, Ds, psi, cs)
    assert_dual(x0, psi, qs, r0)
    assert not np.any(qs[:, 1]) and not np.any(r0[:, 1])


@pytest.mark.parametrize("width", [None, 1, 3])
def test_a_stopped_sweep_hands_its_table_to_the_reverse_sweep(width):
    # the table a stopped sweep returns is the trapezoid rule of the ends it
    # found, and the reverse sweep on it is, column by column, the transpose
    # of that column's own stopped vector sweep
    rng = np.random.default_rng(11)
    dim, m = 6, 4
    a = rng.standard_normal((dim, dim)) / np.sqrt(dim) + 3.0 * np.eye(dim)
    K, S = rng.standard_normal((dim, m)), rng.standard_normal((m, dim))
    step = OperatorSolver(a, K, S).step(0.5)
    caps = np.array([30, 24, 40])[:width or 1]
    x0 = rng.standard_normal((dim, len(caps))) * np.array([1.0, 1e-2, 1e2])[:len(caps)]
    D = rng.uniform(0.0, 0.3, (caps.max() + 1, m, len(caps)))
    psi = rng.standard_normal((dim, len(caps)))
    stop = 1e-6

    def stopped(j):
        """Column j's own stopped vector sweep and the reverse sweep on its table."""
        _, q, c = forward_sweep(step, x0[:, j], lambda k, y: D[k, :, j] * y,
                                trapezoid_weights(int(caps[j])), stop)
        return q, c, reverse_sweep(step, D[:len(c), :, j], psi[:, j], c)

    if width is None:
        q, c, r0 = stopped(0)
        assert len(c) - 1 < caps[0]
        assert np.array_equal(c, trapezoid_weights(len(c) - 1))
        assert psi[:, 0] @ (K @ q) == pytest.approx(x0[:, 0] @ r0, rel=1e-10)
        return
    states, qs, c = forward_sweep(step, x0, lambda k, y: D[k] * y, trapezoid_weights(caps), stop)
    ends = horizons(c)
    assert np.all(ends < caps) and len(set(ends)) == width and len(states) == ends.max() + 1
    assert np.array_equal(c, trapezoid_weights(ends))
    r0 = reverse_sweep(step, D[:len(c)], psi, c)
    for j in range(width):
        col_q, col_c, col_r0 = stopped(j)
        assert len(col_c) - 1 == ends[j]
        assert psi[:, j] @ (K @ qs[:, j]) == pytest.approx(x0[:, j] @ r0[:, j], rel=1e-10)
        np.testing.assert_allclose(r0[:, j], col_r0, rtol=1e-11,
                                   atol=1e-11 * np.abs(col_r0).max())


@pytest.mark.parametrize("blocks", [True, False])
@pytest.mark.parametrize("cols", [None, 3])
def test_sweeps_match_the_dense_recursion(blocks, cols):
    # both kernel paths against x' = P (x - dt K phi) and its transpose
    # r = T_k^T r' + c_k S^T D_k dt K^T psi, T_k = P (I - dt K diag(D_k) S),
    # written out with the dense K and S
    rng = np.random.default_rng(17 if blocks else 18)
    dim, n = 9, 6
    step, K, S = sweep_step(rng, dim, blocks)
    p, dt = step.p, step.dt
    shape = (dim,) if cols is None else (dim, cols)
    D = rng.standard_normal((n + 1, K.shape[1]) + shape[1:])
    x0, psi = rng.standard_normal((2,) + shape)
    table = trapezoid_weights(n if cols is None else np.full(cols, n))
    states, qs, _ = forward_sweep(step, x0, lambda k, y: D[k] * y, table)
    r0 = reverse_sweep(step, D, psi, table)
    c = trapezoid_weights(n)
    x, q = x0, 0.0
    for k in range(n + 1):
        phi = D[k] * (S @ x)
        q = q + dt * c[k] * phi
        np.testing.assert_allclose(states[k], x, rtol=1e-13, atol=1e-13 * np.abs(x).max())
        x = p @ (x - dt * K @ phi)
    np.testing.assert_allclose(qs, q, rtol=1e-13, atol=1e-13 * np.abs(q).max())
    r = S.T @ (D[n] * (c[n] * dt * (K.T @ psi)))
    for k in range(n - 1, -1, -1):
        a = p.T @ r
        r = a - dt * S.T @ (D[k] * (K.T @ a)) + S.T @ (D[k] * (c[k] * dt * (K.T @ psi)))
    np.testing.assert_allclose(r0, r, rtol=1e-13, atol=1e-13 * np.abs(r).max())


def test_identity_block_operands_are_gathered_and_scattered():
    # sine-Gordon's S = [I 0] and K = gamma [0; I] are slices in its step, so
    # the step holds no (dim, m) or (m, dim) array; Wilson-Cowan's S = I is a
    # slice too, but its kernel K stays a dense product
    def held(fn):
        cells = [cell.cell_contents for cell in getattr(fn, "__closure__", None) or ()]
        return [v for v in cells + [getattr(fn, "__self__", None)]
                if isinstance(v, np.ndarray)]

    sg = make_sine_gordon(N=10).solver.step(0.5)
    for fn in (sg.gather_s, sg.scatter_k, sg.gather_k, sg.scatter_s):
        assert held(fn) == []
    assert sg.p.shape == sg.pt.shape == (20, 20) and sg.pt.flags.c_contiguous
    plant = make_wilson_cowan(n=8)
    wc = plant.solver.step(0.5)
    assert held(wc.gather_s) == held(wc.scatter_s) == []
    np.testing.assert_array_equal(*held(wc.scatter_k), 0.5 * plant.K)
    np.testing.assert_array_equal(*held(wc.gather_k), 0.5 * plant.K.T)


@pytest.mark.parametrize("make", [lambda: make_wilson_cowan(n=32),
                                  lambda: make_sine_gordon(N=30)],
                         ids=["dense_K", "identity_blocks"])
def test_forward_sweep_is_bitwise_the_written_out_recursion(make):
    # x_{k+1} = P (x_k - dt K phi_k) and q = sum_k w_k phi_k, node by node,
    # with the step's own P and dt K: the sweep neither reorders a sum nor
    # changes an operand, for a vector, a (dim, 1) block and a block of one
    # column with its own horizon
    plant = make()
    dt, n = 0.7, 12
    step = plant.solver.step(dt)
    w = dt * trapezoid_weights(n)
    rng = np.random.default_rng(4)
    # a zero second half, so that dt K phi is not lost in x's roundoff at node 0
    x0 = np.where(np.arange(plant.dim) < plant.dim // 2, rng.standard_normal(plant.dim), 0.0)
    xs = [x0]
    phi = plant.sigma(plant.S @ x0)
    qs = w[0] * phi
    for k in range(1, n + 1):
        xs.append(np.matmul(step.p, xs[-1] - (dt * plant.K) @ phi))
        phi = plant.sigma(plant.S @ xs[-1])
        qs += w[k] * phi
    # one node's dt K phi alone, where no x absorbs its roundoff
    assert np.array_equal(step.scatter_k(np.zeros(plant.dim), phi), -((dt * plant.K) @ phi))
    phi_at = lambda k, y: plant.sigma(y)
    for x, nq, shape in ((x0, n, (plant.dim,)), (x0[:, None], n, (plant.dim, 1)),
                         (x0[:, None], np.array([n]), (plant.dim, 1))):
        states, q, _ = forward_sweep(step, x, phi_at, trapezoid_weights(nq))
        assert np.array_equal(states, np.reshape(xs, (n + 1,) + shape))
        assert np.array_equal(q, qs.reshape(q.shape))


def test_trapezoid_weights():
    np.testing.assert_array_equal(trapezoid_weights(3), [0.5, 1, 1, 0.5])
    np.testing.assert_array_equal(trapezoid_weights(0), [0.0])
    # per column: 0.5 at node 0 and at its own end node, 0 beyond
    np.testing.assert_array_equal(trapezoid_weights(np.array([2, 0, 3])), [
        [0.5, 0, 0.5], [1, 0, 1], [0.5, 0, 1], [0, 0, 0.5]])


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 8), blocks=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_sweeps_are_column_sweeps(dim, blocks, seed):
    # each column of a block sweeps to its own horizon, as its vector sweep
    # would, and the block reverse sweep is the exact transpose column by column
    rng = np.random.default_rng(seed)
    step, K, S = sweep_step(rng, dim, blocks)
    s = 4
    nqs = np.append(rng.integers(1, 10, size=s - 1), 0)
    n = nqs.max()
    D = rng.standard_normal((n + 1, K.shape[1], s))
    x0, psi = rng.standard_normal((2, dim, s))
    c = trapezoid_weights(nqs)
    states, qs, _ = forward_sweep(step, x0, lambda k, y: D[k] * y, c)
    r0 = reverse_sweep(step, D, psi, c)
    assert states.shape == (n + 1, dim, s) and r0.shape == (dim, s)
    for j, nq in enumerate(nqs):
        col_states, col_q, _ = forward_sweep(
            step, x0[:, j], lambda k, y: D[k, :, j] * y, trapezoid_weights(int(nq)))
        scale = np.abs(col_states).max()
        np.testing.assert_allclose(states[:nq + 1, :, j], col_states, rtol=1e-13,
                                   atol=1e-13 * scale)
        np.testing.assert_allclose(qs[:, j], col_q, rtol=1e-13,
                                   atol=1e-13 * np.abs(col_q).max())
        col_r0 = reverse_sweep(step, D[:, :, j], psi[:, j], trapezoid_weights(int(nq)))
        np.testing.assert_allclose(r0[:, j], col_r0, rtol=1e-13,
                                   atol=1e-13 * np.abs(col_r0).max())
        assert psi[:, j] @ (K @ qs[:, j]) == pytest.approx(x0[:, j] @ r0[:, j],
                                                           rel=1e-10, abs=1e-12)
    assert not np.any(r0[:, nqs == 0])  # a horizon of 0 nodes has no cotangent


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 8), blocks=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_stopped_sweep_is_the_sweep_to_its_stop(dim, blocks, seed):
    # a column ends at its first node k >= 1 with ||x_k||_2 <= stop, or at
    # its cap; the vector sweep's states and sum are then bitwise those of
    # the sweep to that node, a block's columns end where their vector
    # sweeps do (across several stop tests), and a block of one is bitwise
    # the vector
    rng = np.random.default_rng(seed)
    step, K, S = sweep_step(rng, dim, blocks)
    s = 5
    caps = np.append(0, rng.integers(1, 40, size=s - 1))
    x0 = rng.standard_normal((dim, s)) * 10.0 ** rng.uniform(-3, 3, size=s)
    stop = 10.0 ** rng.uniform(-4, 0)

    def phi(k, y):
        return 0.1 * np.sin(y)

    states, qs, table = forward_sweep(step, x0, phi, trapezoid_weights(caps), stop)
    ends = horizons(table)
    assert len(states) == ends.max() + 1 and ends[0] == 0
    for j, cap in enumerate(caps):
        full, _, _ = forward_sweep(step, x0[:, j], phi, trapezoid_weights(int(cap)))
        end = next((k for k in range(1, cap + 1) if full[k] @ full[k] <= stop**2), cap)
        col_states, col_q, col_table = forward_sweep(
            step, x0[:, j], phi, trapezoid_weights(int(cap)), stop)
        assert ends[j] == len(col_table) - 1 == end
        to_end, q_end, _ = forward_sweep(step, x0[:, j], phi, trapezoid_weights(end))
        assert np.array_equal(col_states, to_end) and np.array_equal(col_q, q_end)
        # a block's products round apart from the vector's over up to 40 nodes
        np.testing.assert_allclose(states[:end + 1, :, j], col_states, rtol=1e-11,
                                   atol=1e-11 * np.abs(col_states).max())
        np.testing.assert_allclose(qs[:, j], col_q, rtol=1e-11,
                                   atol=1e-11 * np.abs(col_q).max())
        one_states, one_q, one_table = forward_sweep(
            step, x0[:, j:j + 1], phi, trapezoid_weights(caps[j:j + 1]), stop)
        assert horizons(one_table)[0] == end
        assert np.array_equal(one_states[:, :, 0], col_states)
        assert np.array_equal(one_q[:, 0], col_q)
    _, _, rev_table = forward_sweep(step, x0[:, ::-1], phi, trapezoid_weights(caps[::-1]), stop)
    assert np.array_equal(horizons(rev_table), ends[::-1])


def test_a_block_ends_where_its_vector_does_at_the_threshold():
    # stop^2 within a few roundoffs of a state's squared norm, or 4e-10 below
    # it: the block's test is exact, so each column ends at the first node
    # where the vector's own x . x of its state is at most stop^2, at any
    # width and place in the block, and a block of one ends where the vector
    # does
    rng = np.random.default_rng(3)
    step, _, _ = sweep_step(rng, 6, False)
    x0 = np.column_stack([rng.standard_normal(6) for _ in range(8)])

    def phi(k, y):
        return 0.1 * np.sin(y)

    def stops_and_ends(states):
        sq = [x.dot(x) for x in np.ascontiguousarray(states)]
        for k in range(1, 21):
            root = math.sqrt(sq[k])
            for stop in [root * (1 + i * 2.0**-52) for i in range(-4, 5)] + [
                    math.sqrt(sq[k] / (1 + 4e-10))]:
                yield stop, next((j for j in range(1, 21) if sq[j] <= stop * stop), 20)

    c, block_c = trapezoid_weights(20), trapezoid_weights(np.array([20]))
    full, _, _ = forward_sweep(step, x0[:, 0], phi, c)
    for stop, end in stops_and_ends(full):
        assert len(forward_sweep(step, x0[:, 0], phi, c, stop)[2]) - 1 == end
        assert horizons(forward_sweep(step, x0[:, :1], phi, block_c, stop)[2]).tolist() == [end]
    for width in (2, 3, 8):
        for at in (0, width // 2, width - 1):
            block = np.roll(x0[:, :width], at, axis=1)  # column 0 moves to ``at``
            c = trapezoid_weights(np.full(width, 20))
            states, _, _ = forward_sweep(step, block, phi, c)
            for stop, end in stops_and_ends(states[:, :, at]):
                _, _, table = forward_sweep(step, block, phi, c, stop)
                assert horizons(table)[at] == end, (stop, width, at)


def test_reverse_sweep_memory_does_not_grow_with_the_horizon():
    # the sweep keeps r_0 alone: at n = 2,000 its peak is far below the
    # (n + 1, dim, c) history of every node's cotangent
    rng = np.random.default_rng(5)
    dim, m, c, n = 50, 20, 4, 2000
    a = rng.standard_normal((dim, dim)) / np.sqrt(dim) + 3.0 * np.eye(dim)
    # a small F, so the 2,000 steps contract
    K, S = rng.standard_normal((2, dim, m)) / dim
    step = OperatorSolver(a, K, S.T).step(0.1)
    D = rng.uniform(0.0, 1.0, (n + 1, m))
    psi = rng.standard_normal((dim, c))
    table = trapezoid_weights(n)
    reverse_sweep(step, D[:11], psi, trapezoid_weights(10))  # warm up
    tracemalloc.start()
    try:
        r0 = reverse_sweep(step, D, psi, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r0.shape == (dim, c)
    assert peak < (n + 1) * dim * c * 8 / 10, peak


def test_estimate_alpha_scalar():
    p = make_scalar_plant(a=2.0, c=0.1)
    quotient = estimate_alpha(p, n_samples=40, radius=1.0, seed=2)
    # cubic term only helps: sampled quotient >= a
    assert quotient >= 2.0 - 1e-9


def test_estimate_alpha_flags_violation():
    p = make_scalar_plant(a=2.0, c=0.1)
    p.alpha_cert = 5.0  # stronger than the truth
    quotient = estimate_alpha(p, n_samples=40, seed=2)
    assert quotient < p.alpha_cert - 1e-3


def test_contraction_check_scalar():
    p = make_scalar_plant(a=2.0, c=0.1)
    ratio = contraction_samples(p, n_pairs=3, radius=1.0, T=2.0, dt=0.01)
    assert ratio <= 1.05


def test_contraction_check_fails_for_expansive():
    # A = -1 (expansive); certificate claims contraction at rate 1
    sp = SpaceSpec(1, np.eye(1), "H")
    amat = np.array([[-1.0]])
    p = Plant(
        name="expansive",
        space_H=sp,
        space_U=sp,
        space_Z=sp,
        A=amat,
        B=np.eye(1),
        C=np.eye(1),
        alpha_cert=1.0,
        lip_F=0.0,
    )
    ratio = contraction_samples(p, n_pairs=1, radius=1.0, T=1.0, dt=0.01)
    assert ratio > 1.05


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_plant_refuses_misshaped_operator(name):
    # dim 2, dim_U 1, dim_Z 3: each operator has one right shape
    ops = {"A": np.eye(2), "B": np.ones((2, 1)), "C": np.ones((3, 2))}
    ops[name] = np.ones((4, 4))
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        Plant(
            name="misshaped",
            space_H=SpaceSpec(2, np.eye(2)),
            space_U=SpaceSpec(1, np.eye(1)),
            space_Z=SpaceSpec(3, np.eye(3)),
            alpha_cert=1.0,
            lip_F=0.0,
            **ops,
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_plant_refuses_a_bad_lip_dsigma(value):
    with pytest.raises(ValueError, match=r"^lip_dsigma must be finite and non-negative, got "):
        Plant(name="bad", space_H=SpaceSpec(1, np.eye(1)), space_U=SpaceSpec(1, np.eye(1)),
              space_Z=SpaceSpec(1, np.eye(1)), A=np.eye(1), B=np.eye(1), C=np.eye(1),
              alpha_cert=1.0, lip_F=0.0, lip_dsigma=value)


def _plant_2d(**semilinear):
    sp = SpaceSpec(2, np.eye(2))
    return Plant(name="semilinear", space_H=sp, space_U=sp, space_Z=sp, A=np.eye(2),
                 B=np.eye(2), C=np.eye(2), alpha_cert=1.0, lip_F=1.0, **semilinear)


@pytest.mark.parametrize("k_shape, s_shape", [((2, 1), (2, 2)), ((3, 1), (1, 2)),
                                              ((2, 1), (1, 3))])
def test_plant_refuses_misshaped_k_or_s(k_shape, s_shape):
    with pytest.raises(ValueError, match=r"^K must be \(2, m\) and S \(m, 2\), got "):
        _plant_2d(K=np.ones(k_shape), S=np.ones(s_shape), sigma=np.tanh,
                  dsigma=lambda v: 1.0 - np.tanh(v) ** 2)


def test_plant_refuses_sigma_off_the_origin():
    # F(0) = K sigma(0) must vanish, so the origin stays an equilibrium
    with pytest.raises(ValueError, match=r"^sigma\(0\) must be 0$"):
        _plant_2d(K=np.ones((2, 1)), S=np.ones((1, 2)), sigma=np.cos, dsigma=np.sin)


def test_require_alpha_names_the_uncertified_plant():
    plant = _plant_2d()
    assert plant.require_alpha() == 1.0
    plant.alpha_cert = None
    with pytest.raises(ValueError, match="plant 'semilinear' has no certified monotonicity"):
        plant.require_alpha()


def test_solver_transpose_consistency():
    rng = np.random.default_rng(51)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    s = OperatorSolver(a, np.zeros((5, 0)), np.zeros((0, 5)))
    b = rng.standard_normal(5)
    dt = 0.3
    np.testing.assert_allclose((np.eye(5) + dt * a) @ s.solve_step(dt, b), b, atol=1e-12)


def test_solve_step_reads_the_sweep_inverse():
    # the closed-loop step and the sweeps apply one (I + dt A)^{-1}
    plant = make_sine_gordon(N=12)
    rng = np.random.default_rng(7)
    for dt in (0.5, 0.05):
        p = plant.solver.step(dt).p
        for b in (rng.standard_normal(plant.dim), rng.standard_normal((plant.dim, 3))):
            assert np.array_equal(plant.solver.solve_step(dt, b), p @ b)


def test_simulate_and_flow_factor_each_step_size_once(monkeypatch):
    plant = make_linear_benchmark(6, alpha=0.5, seed=1)
    fmap = build_forwarding(plant, dt_quad=0.05)
    calls = []

    def counted(*args, _orig=np.linalg.solve, **kwargs):
        calls.append(None)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    dt = 0.01
    run = simulate(plant, fmap, Scenario(y_ref=0.1 * np.ones(2), T=0.5, dt=dt))
    flow(plant, run.w[-1], 0.5, dt)
    # one solve builds P; every step is a product with it
    assert len(calls) == 1
    flow(plant, run.w[-1], 0.5, 2 * dt)
    assert len(calls) == 2
