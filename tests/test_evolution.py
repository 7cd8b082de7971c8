"""IMEX stepping, flows, tangent/adjoint consistency, contraction checks."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from forwardreg.evolution import (
    OperatorSolver,
    Plant,
    adjoint_tangent_flow,
    contraction_check,
    estimate_alpha,
    flow,
    forward_sweep,
    reverse_sweep,
    tangent_flow,
    trapezoid_weights,
)
from forwardreg.forwarding import build_forwarding
from forwardreg.plants import make_linear_benchmark, make_sine_gordon, make_wilson_cowan
from forwardreg.regulator import Scenario, simulate
from forwardreg.spaces import SpaceSpec
from helpers import make_random_plant, make_scalar_plant


def test_flow_scalar_hand_value():
    # hand computation: (I + dt a) w' = w - dt c w^3 with dt=0.01, w=1:
    # w' = (1 - 0.001) / 1.02
    p = make_scalar_plant(a=2.0, c=0.1)
    w1 = flow(p, np.array([1.0]), 0.01, 0.01).states[1]
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
        errs.append(abs(traj.states[-1, 0] - wT_exact))
    # first-order scheme: error halves with dt
    assert errs[0] < 5e-3
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 0.9 and order2 > 0.9


def test_trajectory_grid():
    p = make_scalar_plant()
    traj = flow(p, np.array([0.5]), 1.0, 0.1)
    assert len(traj) == 11
    assert traj.dt == pytest.approx(0.1)
    np.testing.assert_allclose(traj.times, 0.1 * np.arange(11))


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
    v = tangent_flow(p, base, h)
    eps = 1e-6
    fp = flow(p, w0 + eps * h, T, dt)
    fm = flow(p, w0 - eps * h, T, dt)
    fd = (fp.states[-1] - fm.states[-1]) / (2 * eps)
    np.testing.assert_allclose(v.states[-1], fd, atol=1e-7)


def test_adjoint_tangent_duality_exact():
    # (v_n, zeta)_H == (h, r_0)_H to roundoff: the adjoint flow reverses the
    # exact discrete tangent steps, not the continuous equation
    p = make_random_plant(dim=7, seed=9)
    rng = np.random.default_rng(41)
    w0 = rng.standard_normal(p.dim) * 0.3
    base = flow(p, w0, 0.8, 0.02)
    for _ in range(5):
        h = rng.standard_normal(p.dim)
        zeta = rng.standard_normal(p.dim)
        v = tangent_flow(p, base, h)
        r = adjoint_tangent_flow(p, base, zeta)
        lhs = p.space_H.inner(v.states[-1], zeta)
        rhs = p.space_H.inner(h, r.states[0])
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
    # psi . q + lam . x_n == x_0 . r_0 for J_k = K diag(D_k) S, with S and K
    # gathered and scattered or dense
    rng = np.random.default_rng(seed)
    step, K, S = sweep_step(rng, dim, blocks)
    D = rng.standard_normal((n + 1, K.shape[1]))
    x0, psi, lam = rng.standard_normal((3, dim))
    states, qs = forward_sweep(step, x0, lambda k, y: D[k] * y, n)
    r = reverse_sweep(step, D, psi, lam, n)
    assert psi @ (K @ qs) + lam @ states[n] == pytest.approx(x0 @ r[0], rel=1e-10)
    # a (dim, c) block sweeps each column as its own vector sweep would
    psis, lams = rng.standard_normal((2, dim, 3))
    block = reverse_sweep(step, D, psis, lams, n)
    for j in range(3):
        col = reverse_sweep(step, D, psis[:, j], lams[:, j], n)
        np.testing.assert_allclose(block[:, :, j], col, rtol=1e-12,
                                   atol=1e-12 * np.abs(col).max())


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
    x0, psi, lam = rng.standard_normal((3,) + shape)
    nq = n if cols is None else np.full(cols, n)
    states, qs = forward_sweep(step, x0, lambda k, y: D[k] * y, nq)
    rows = reverse_sweep(step, D, psi, lam, nq)
    c = trapezoid_weights(n)
    x, q = x0, 0.0
    ref_r = [None] * (n + 1)
    for k in range(n + 1):
        phi = D[k] * (S @ x)
        q = q + dt * c[k] * phi
        np.testing.assert_allclose(states[k], x, rtol=1e-13, atol=1e-13 * np.abs(x).max())
        x = p @ (x - dt * K @ phi)
    np.testing.assert_allclose(qs, q, rtol=1e-13, atol=1e-13 * np.abs(q).max())
    r = lam + S.T @ (D[n] * (c[n] * dt * (K.T @ psi)))
    ref_r[n] = r
    for k in range(n - 1, -1, -1):
        a = p.T @ r
        r = a - dt * S.T @ (D[k] * (K.T @ a)) + S.T @ (D[k] * (c[k] * dt * (K.T @ psi)))
        ref_r[k] = r
    np.testing.assert_allclose(rows, np.array(ref_r), rtol=1e-13,
                               atol=1e-13 * np.abs(ref_r).max())


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
    states, qs = forward_sweep(step, x0, lambda k, y: D[k] * y, nqs)
    rows = reverse_sweep(step, D, psi, np.zeros((dim, s)), nqs)
    assert states.shape == (n + 1, dim, s) and rows.shape == (n + 1, dim, s)
    for j, nq in enumerate(nqs):
        col_states, col_q = forward_sweep(
            step, x0[:, j], lambda k, y: D[k, :, j] * y, int(nq))
        scale = np.abs(col_states).max()
        np.testing.assert_allclose(states[:nq + 1, :, j], col_states, rtol=1e-13,
                                   atol=1e-13 * scale)
        np.testing.assert_allclose(qs[:, j], col_q, rtol=1e-13,
                                   atol=1e-13 * np.abs(col_q).max())
        col_rows = reverse_sweep(step, D[:, :, j], psi[:, j], np.zeros(dim), int(nq))
        np.testing.assert_allclose(rows[:nq + 1, :, j], col_rows, rtol=1e-13,
                                   atol=1e-13 * np.abs(col_rows).max())
        assert not np.any(rows[nq + 1:, :, j])
        assert psi[:, j] @ (K @ qs[:, j]) == pytest.approx(x0[:, j] @ rows[0, :, j],
                                                           rel=1e-10, abs=1e-12)


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
    ratio = contraction_check(p, np.array([1.0]), np.array([-0.5]), T=2.0, dt=0.01)
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
    ratio = contraction_check(p, np.array([1.0]), np.array([0.0]), T=1.0, dt=0.01)
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
    calls = {"lu_factor": 0, "lu_solve": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(sla, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(sla, name, counted)
    dt = 0.01
    run = simulate(plant, fmap, Scenario(y_ref=0.1 * np.ones(2), T=0.5, dt=dt))
    flow(plant, run.w[-1], 0.5, dt)
    # one factorization and one solve build P; every step is a product with it
    assert calls == {"lu_factor": 1, "lu_solve": 1}
