"""Forwarding map evaluations, adjoint duality, gains, coercivity."""

import math
import warnings

import numpy as np
import pytest

from forwardreg.evolution import flow
from forwardreg.forwarding import (
    StateEvaluation,
    assemble_feedback_matrix,
    build_forwarding,
    functional_equation_residual,
    linear_forwarding,
    uniform_coercivity_check,
)
from forwardreg.plants import (
    make_linear_benchmark,
    make_scalar_linear,
    make_sine_gordon,
    make_wilson_cowan,
)
from forwardreg.spaces import adjoint
from forwardreg.verify import FD_TOL, fd_check_dM
from helpers import make_random_plant, make_scalar_plant


def make_random_fmap(**kw):
    p = make_random_plant(**kw)
    p.alpha_cert = 0.3  # safe underestimate of the contractivity of A + dF
    return build_forwarding(p, dt_quad=0.02, tail_tol=1e-8)


@pytest.mark.parametrize("name, value", [
    ("dt_quad", 0.0), ("dt_quad", np.nan), ("tail_tol", 0.0), ("tail_tol", np.inf),
    ("tau_max", -1.0), ("tau_max", np.nan),
])
def test_build_forwarding_refuses_bad_horizon(name, value):
    kwargs = {"dt_quad": 0.01, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        build_forwarding(make_scalar_plant(), **kwargs)


# -- linear part -------------------------------------------------------------


def test_linear_forwarding_scalar():
    # 1x1 algebra: M_lin = -C/A = -1/2
    p = make_scalar_plant(a=2.0, c=0.1)
    m = linear_forwarding(p)
    assert m.shape == (1, 1)
    assert (m @ np.array([1.0]))[0] == pytest.approx(-0.5, rel=1e-14)
    assert (m @ np.zeros(1))[0] == 0.0


def test_linear_forwarding_round_trip():
    # C(A^{-1}(A w)) = C w
    p = make_linear_benchmark(5, alpha=0.8, seed=2, dim_out=2)
    m = linear_forwarding(p)
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rng.standard_normal(5)
        np.testing.assert_allclose(-m @ (p.A @ w), p.C @ w, rtol=1e-10, atol=1e-12)


# -- M -----------------------------------------------------------------------


def test_eval_M_zero_state():
    fmap = build_forwarding(make_scalar_plant(), dt_quad=0.01)
    assert StateEvaluation(fmap, np.zeros(1)).M()[0] == 0.0


def test_eval_M_linear_plant():
    p = make_linear_benchmark(6, alpha=0.8, seed=4, dim_out=3)
    fmap = build_forwarding(p, dt_quad=0.05)
    m = linear_forwarding(p)
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.standard_normal(6)
        np.testing.assert_allclose(
            StateEvaluation(fmap, w).M(), m @ w, rtol=1e-12, atol=1e-14
        )


def test_eval_M_scalar_closed_form():
    # frozen from tests/oracles/scalar_forwarding.py (a=2, c=0.1, w0=1);
    # the first-order flow inside the quadrature converges at ~0.015*dt_quad
    M_exact = -0.49190807168893447
    fmap = build_forwarding(make_scalar_plant(), dt_quad=4e-4, tail_tol=1e-9)
    got = StateEvaluation(fmap, np.array([1.0])).M()[0]
    assert got == pytest.approx(M_exact, rel=1e-5)


def test_eval_M_refinement_agreement():
    # coarse evaluation vs brute force at dt_quad/10 with doubled horizon: a
    # tail tolerance e^(-alpha tau) times smaller adds tau to the horizon
    p = make_scalar_plant()
    coarse = build_forwarding(p, dt_quad=5e-4, tail_tol=1e-8)
    tau = coarse.horizon(1.0)
    fine = build_forwarding(p, dt_quad=5e-5, tail_tol=1e-8 * np.exp(-p.alpha_cert * tau))
    assert fine.horizon(1.0) == pytest.approx(2 * tau)
    w = np.array([1.0])
    got = StateEvaluation(coarse, w).M()[0]
    assert got == pytest.approx(StateEvaluation(fine, w).M()[0], rel=1e-5)


def test_integral_formula_consistency():
    # truncated quadrature of the flow integral agrees with A^{-1}(w - Q);
    # the truncation part of the error decays as the horizon grows, down to
    # the O(dt_quad) floor of the first-order flow
    p = make_scalar_plant()
    w = np.array([0.8])
    dtq = 5e-4
    ev = StateEvaluation(build_forwarding(p, dt_quad=dtq, tail_tol=1e-12), w)
    lhs = np.linalg.solve(p.A, w - ev.q)[0]
    errs = []
    for tau in (2.0, 8.0):
        traj = flow(p, w, tau, dtq)
        direct = np.trapezoid(traj.states[:, 0], dx=dtq)
        errs.append(abs(direct - lhs))
    assert errs[1] < errs[0] / 3
    assert errs[1] < 5e-4


@pytest.mark.parametrize(
    "make_plant, dt_quad",
    [(lambda: make_sine_gordon(N=60, gamma=0.05), 1.0),
     (lambda: make_wilson_cowan(n=32), 2.5)],
    ids=["sine_gordon", "wilson_cowan"],
)
def test_base_trajectory_is_the_plant_flow(make_plant, dt_quad):
    # the quadrature's base trajectory and the plant flow are one recursion
    plant = make_plant()
    fmap = build_forwarding(plant, dt_quad=dt_quad, tail_tol=1e-4)
    w = plant.space_H.sample_ball(np.random.default_rng(5), 1.0)
    ev = StateEvaluation(fmap, w)
    assert ev.nq > 1
    traj = flow(plant, w, ev.nq * dt_quad, dt_quad)
    assert np.array_equal(traj.states, ev.base_states)


# -- dM ----------------------------------------------------------------------


def test_eval_dM_zero_direction():
    fmap = make_random_fmap()
    w = np.ones(6) * 0.4
    np.testing.assert_allclose(
        StateEvaluation(fmap, w).dM(np.zeros(6)), 0.0, atol=1e-14
    )


def test_eval_dM_at_origin_is_linear_part():
    # dF(0) = 0 (sigma = sin x - x): a zero state takes no nodes, and dM(0)
    # is -C A^{-1}
    plant = make_sine_gordon(N=8)
    fmap = build_forwarding(plant, dt_quad=0.5, tail_tol=1e-6)
    h = np.random.default_rng(3).standard_normal(plant.dim)
    ev = StateEvaluation(fmap, np.zeros(plant.dim))
    assert ev.nq == 0
    np.testing.assert_allclose(ev.dM(h), fmap.m_lin @ h, rtol=1e-12)


def test_eval_dM_at_origin_matches_finite_differences():
    # the tanh plant has dF(0) = K != 0, so the origin runs the quadrature
    fmap = make_random_fmap()
    h = np.random.default_rng(3).standard_normal(6)
    ev = StateEvaluation(fmap, np.zeros(6))
    assert ev.nq == math.ceil(fmap.horizon(0.0) / fmap.dt_quad)
    assert max(fd_check_dM(fmap, np.zeros(6), h).errors) < FD_TOL
    assert not np.allclose(ev.dM(h), fmap.m_lin @ h, rtol=1e-3)


def test_eval_dM_linearity():
    fmap = make_random_fmap()
    rng = np.random.default_rng(4)
    w = fmap.plant.space_H.sample_ball(rng, 0.8)
    h1 = rng.standard_normal(6)
    h2 = rng.standard_normal(6)
    ev = StateEvaluation(fmap, w)
    lhs = ev.dM(2.0 * h1 - 3.0 * h2)
    rhs = 2.0 * ev.dM(h1) - 3.0 * ev.dM(h2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_eval_dM_matches_finite_difference_scalar():
    fmap = build_forwarding(make_scalar_plant(), dt_quad=0.005, tail_tol=1e-9)
    w = np.array([0.7])
    h = np.array([1.0])
    eps = 1e-4
    fd = (
        StateEvaluation(fmap, w + eps * h).M() - StateEvaluation(fmap, w - eps * h).M()
    ) / (2 * eps)
    got = StateEvaluation(fmap, w).dM(h)
    assert got[0] == pytest.approx(fd[0], rel=1e-4)


# -- adjoint -----------------------------------------------------------------


def test_dM_adjoint_duality():
    # exact discrete adjoint: duality to roundoff on a weighted-gram plant
    fmap = make_random_fmap()
    p = fmap.plant
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = p.space_H.sample_ball(rng, 1.0)
        h = rng.standard_normal(p.dim)
        zeta = rng.standard_normal(p.space_Z.dim)
        ev = StateEvaluation(fmap, w)
        lhs = p.space_Z.inner(ev.dM(h), zeta)
        rhs = p.space_H.inner(h, ev.dM_adjoint(zeta))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dM_adjoint_B_zero():
    fmap = make_random_fmap()
    w = np.ones(6) * 0.3
    np.testing.assert_allclose(
        StateEvaluation(fmap, w).dM_adjoint_B(np.zeros(6)), 0.0, atol=1e-14
    )


def test_dM_adjoint_B_at_origin():
    # dF(0) = 0 case: B* M_lin* zeta via the dense adjoint composition
    p = make_linear_benchmark(6, alpha=0.8, seed=8, dim_out=2)
    fmap = build_forwarding(p, dt_quad=0.05)
    bstar = adjoint(p.B, p.space_U, p.space_H)
    mstar = adjoint(fmap.m_lin, p.space_H, p.space_Z)
    rng = np.random.default_rng(9)
    zeta = rng.standard_normal(2)
    np.testing.assert_allclose(
        StateEvaluation(fmap, np.zeros(6)).dM_adjoint_B(zeta),
        bstar @ (mstar @ zeta),
        rtol=1e-11,
        atol=1e-13,
    )


def test_shared_evaluation_consistency():
    # StateEvaluation reuses one base trajectory for all calls
    fmap = make_random_fmap()
    rng = np.random.default_rng(10)
    w = fmap.plant.space_H.sample_ball(rng, 0.6)
    ev = StateEvaluation(fmap, w)
    h = rng.standard_normal(6)
    zeta = rng.standard_normal(6)
    np.testing.assert_allclose(ev.M(), StateEvaluation(fmap, w).M(), rtol=1e-14)
    np.testing.assert_allclose(ev.dM(h), StateEvaluation(fmap, w).dM(h), rtol=1e-14)
    np.testing.assert_allclose(
        ev.dM_adjoint_B(zeta), StateEvaluation(fmap, w).dM_adjoint_B(zeta), rtol=1e-14
    )


# -- gains and coercivity -----------------------------------------------------


def test_coercivity_lambda_scalar():
    # B* dM(0)* z = -z/2, so lambda = 1/4
    fmap = build_forwarding(make_scalar_plant(a=2.0), dt_quad=0.01)
    assert fmap.lam == pytest.approx(0.25, rel=1e-12)


def test_gain_formulas_scalar():
    fmap = build_forwarding(make_scalar_plant(a=2.0), dt_quad=0.01)
    # lam = 1/4 -> lam_tilde = 1/12, kappa = min{2/4, 1/48} = 1/48
    assert fmap.lam_tilde == fmap.lam / 3.0
    assert fmap.lam_tilde == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert fmap.feasible
    rho, kappa = fmap.rho, fmap.kappa
    assert kappa == pytest.approx(1.0 / 48.0, rel=1e-12)
    assert kappa == min(2.0 / 4.0, fmap.lam_tilde / 4.0)
    # ||B|| = 1, alpha = 2 -> rho = 1 * max{1, 1} = 1
    assert rho == pytest.approx(1.0, rel=1e-12)


def test_gain_formulas_small_alpha():
    # ||B|| = 1, alpha = 0.5 -> rho = max{1, 4} = 4
    fmap = build_forwarding(make_scalar_plant(a=0.5), dt_quad=0.01)
    assert fmap.feasible
    assert fmap.rho == pytest.approx(4.0, rel=1e-12)


def test_rank_deficient_output_infeasible():
    p = make_linear_benchmark(5, alpha=0.8, seed=3, dim_out=2)
    # second output row duplicates the first: CA^{-1}B loses rank
    p.C[1] = p.C[0]
    fmap = build_forwarding(p, dt_quad=0.05)
    assert not fmap.range_ok
    assert not fmap.feasible
    assert fmap.rho is None and fmap.kappa is None


def test_uniform_coercivity_radius_zero_matches_lambda():
    fmap = make_random_fmap()
    sigma_sq = uniform_coercivity_check(fmap, n_samples=3, radius=0.0, seed=1)
    assert sigma_sq == fmap.lam  # bitwise: same assembly path


def test_uniform_coercivity_linear_plant_constant():
    p = make_linear_benchmark(6, alpha=0.8, seed=6, dim_out=2)
    fmap = build_forwarding(p, dt_quad=0.05)
    sigma_sq = uniform_coercivity_check(fmap, n_samples=8, radius=5.0, seed=2)
    assert sigma_sq == pytest.approx(fmap.lam, rel=1e-12)
    assert sigma_sq >= fmap.lam_tilde > 0


def test_feedback_matrix_shape():
    p = make_linear_benchmark(6, alpha=0.8, seed=6, dim_out=2)
    fmap = build_forwarding(p, dt_quad=0.05)
    k = assemble_feedback_matrix(fmap, np.zeros(6))
    assert k.shape == (2, 2)


@pytest.mark.parametrize(
    "make_plant, dt_quad",
    [(lambda: make_sine_gordon(N=60, gamma=0.05), 1.0),
     (lambda: make_wilson_cowan(n=32), 2.5)],
    ids=["sine_gordon", "wilson_cowan"],
)
def test_feedback_matrix_is_the_columnwise_adjoint(make_plant, dt_quad):
    # one block sweep of the Z basis == one vector sweep per basis direction
    plant = make_plant()
    fmap = build_forwarding(plant, dt_quad=dt_quad, tail_tol=1e-4)
    w = plant.space_H.sample_ball(np.random.default_rng(7), 1.0)
    ev = StateEvaluation(fmap, w)
    assert ev.nq > 1
    cols = np.column_stack([ev.dM_adjoint_B(e) for e in np.eye(fmap.dim_Z)])
    k = assemble_feedback_matrix(fmap, w)
    np.testing.assert_allclose(k, cols, rtol=1e-12, atol=1e-12 * np.abs(cols).max())


# -- functional equation ------------------------------------------------------


def test_functional_equation_zero_state():
    fmap = build_forwarding(make_scalar_plant(), dt_quad=0.01)
    assert functional_equation_residual(fmap, np.zeros(1)) == 0.0


def test_functional_equation_linear_plant():
    p = make_linear_benchmark(6, alpha=0.8, seed=11, dim_out=2)
    fmap = build_forwarding(p, dt_quad=0.05)
    rng = np.random.default_rng(12)
    for _ in range(5):
        w = rng.standard_normal(6)
        assert functional_equation_residual(fmap, w) <= 1e-8


def test_functional_equation_scalar_refines():
    p = make_scalar_plant()
    w = np.array([0.9])
    coarse = build_forwarding(p, dt_quad=0.02, tail_tol=1e-7)
    # a tail tolerance e^2 times smaller lengthens the horizon by 2 / alpha
    fine = build_forwarding(p, dt_quad=0.01, tail_tol=1e-7 * np.exp(-2.0))
    assert fine.horizon(np.linalg.norm(w)) == pytest.approx(
        coarse.horizon(np.linalg.norm(w)) + 2.0 / p.alpha_cert)
    r0 = functional_equation_residual(coarse, w)
    r1 = functional_equation_residual(fine, w)
    assert r0 <= 1e-3
    assert r0 / r1 >= 1.7


def test_drift_helper_used_by_residual():
    # the residual applies dM(w) to the full drift A w + F(w) = 2.1 at w = 1
    p = make_scalar_plant(a=2.0, c=0.1)
    fmap = build_forwarding(p, dt_quad=0.01, tail_tol=1e-8)
    w = np.array([1.0])
    num = abs(StateEvaluation(fmap, w).dM(np.array([2.1]))[0] + 1.0)
    expect = num / (1.0 + 2.1 + 1e-14)
    assert functional_equation_residual(fmap, w) == pytest.approx(expect, rel=1e-12)


# -- horizon ------------------------------------------------------------------


def test_horizon_grows_with_norm_and_clamps():
    fmap = build_forwarding(make_scalar_plant(), dt_quad=0.01, tail_tol=1e-8)
    t1 = fmap.horizon(0.5)
    t2 = fmap.horizon(5.0)
    assert t2 > t1
    assert fmap.horizon(1e12) == fmap.tau_max


def test_zero_state_skips_quadrature():
    # the cubic plant has dF(0) = 0; the tanh plant's origin takes nodes
    # (test_eval_dM_at_origin_matches_finite_differences)
    fmap = build_forwarding(make_scalar_plant(), dt_quad=0.01, tail_tol=1e-8)
    ev = StateEvaluation(fmap, np.zeros(1))
    assert ev.nq == 0


def test_linear_plant_skips_quadrature():
    p = make_linear_benchmark(5, alpha=0.8, seed=13, dim_out=2)
    fmap = build_forwarding(p, dt_quad=0.05)
    rng = np.random.default_rng(14)
    ev = StateEvaluation(fmap, rng.standard_normal(5))
    assert ev.nq == 0


# -- blocks of states ---------------------------------------------------------

BLOCK_PLANTS = pytest.mark.parametrize(
    "make_plant, dt_quad",
    [(lambda: make_sine_gordon(N=12, gamma=0.05), 0.5),
     (lambda: make_wilson_cowan(n=8), 1.0),
     (lambda: make_random_plant(alpha=1.0), 0.05)],
    ids=["sine_gordon", "wilson_cowan", "weighted_gram"],
)


def block_of_states(plant, seed):
    # a zero state and states of growing norm, so the horizons differ
    rng = np.random.default_rng(seed)
    return np.column_stack([np.zeros(plant.dim)] + [
        plant.space_H.sample_sphere(rng) * r for r in (0.05, 1.0, 40.0)])


def block_fmap(plant, dt_quad):
    if plant.alpha_cert is None:
        plant.alpha_cert = 0.3  # safe underestimate, as make_random_fmap
    return build_forwarding(plant, dt_quad=dt_quad, tail_tol=1e-10)


@BLOCK_PLANTS
def test_state_block_matches_single_states(make_plant, dt_quad):
    # per column: the state's own horizon, M and B* dM* eta of its own
    # evaluation; the zero column skips the quadrature where dF(0) = 0
    plant = make_plant()
    fmap = block_fmap(plant, dt_quad)
    ws = block_of_states(plant, 3)
    eta = np.random.default_rng(4).standard_normal((fmap.dim_Z, ws.shape[1]))
    ev = StateEvaluation(fmap, ws)
    singles = [StateEvaluation(fmap, w) for w in ws.T]
    np.testing.assert_array_equal(ev.nqs, [e.nq for e in singles])
    assert (ev.nqs[0] == 0) == plant.flat_at_origin and len(set(ev.nqs)) == ws.shape[1]
    assert ev.nq == max(ev.nqs)
    m, u = ev.M(), ev.dM_adjoint_B(eta)
    for j, single in enumerate(singles):
        want_m, want_u = single.M(), single.dM_adjoint_B(eta[:, j])
        np.testing.assert_allclose(m[:, j], want_m, rtol=1e-13,
                                   atol=1e-13 * np.abs(want_m).max())
        np.testing.assert_allclose(u[:, j], want_u, rtol=1e-13,
                                   atol=1e-13 * np.abs(want_u).max())


@BLOCK_PLANTS
def test_state_block_duality_per_column(make_plant, dt_quad):
    plant = make_plant()
    fmap = block_fmap(plant, dt_quad)
    ws = block_of_states(plant, 5)
    rng = np.random.default_rng(6)
    h = rng.standard_normal(ws.shape)
    zeta = rng.standard_normal((fmap.dim_Z, ws.shape[1]))
    ev = StateEvaluation(fmap, ws)
    dm, adj = ev.dM(h), ev.dM_adjoint(zeta)
    for j in range(ws.shape[1]):
        lhs = plant.space_Z.inner(dm[:, j], zeta[:, j])
        rhs = plant.space_H.inner(h[:, j], adj[:, j])
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_block_of_one_state_is_bitwise_the_vector():
    plant = make_sine_gordon(N=12, gamma=0.05)
    fmap = build_forwarding(plant, dt_quad=0.5, tail_tol=1e-6)
    w = block_of_states(plant, 7)[:, 2]
    eta = np.random.default_rng(8).standard_normal(fmap.dim_Z)
    one, vec = StateEvaluation(fmap, w[:, None]), StateEvaluation(fmap, w)
    assert one.nq == vec.nq > 1
    assert np.array_equal(one.M()[:, 0], vec.M())
    assert np.array_equal(one.dM_adjoint_B(eta[:, None])[:, 0], vec.dM_adjoint_B(eta))


def test_singular_A_is_refused_by_name():
    with pytest.warns(UserWarning, match="no contraction certificate"):
        plant = make_scalar_linear(a=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no LinAlgWarning on the way
        with pytest.raises(ValueError, match=r"A is singular, so -C A\^\{-1\} is undefined"):
            build_forwarding(plant, dt_quad=0.01, tau_max=10.0)
