import math
import warnings

import numpy as np
import pytest

from forwardreg.evolution import estimate_alpha
from forwardreg.forwarding import linear_forwarding
from forwardreg.plants import (
    make_linear_benchmark,
    make_scalar_linear,
    make_sine_gordon,
    make_wilson_cowan,
)
from forwardreg.spaces import adjoint, weighted_singular_values


# -- linear benchmark ---------------------------------------------------------


def test_benchmark_monotonicity_is_exactly_alpha():
    p = make_linear_benchmark(12, alpha=0.7, seed=3)
    quotient = estimate_alpha(p, n_samples=30, radius=2.0, seed=1)
    assert abs(quotient - 0.7) < 1e-10


def test_benchmark_core_full_rank():
    p = make_linear_benchmark(20, alpha=0.5, seed=0)
    core = p.C @ np.linalg.solve(p.A, p.B)
    svals = np.linalg.svd(core, compute_uv=False)
    assert svals[-1] > 1e-6 * svals[0]


def test_benchmark_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        make_linear_benchmark(0, alpha=0.5)
    with pytest.raises(ValueError):
        make_linear_benchmark(5, alpha=-1.0)
    for dim_out in (0, -2):
        with pytest.raises(ValueError, match=f"dim_out must be >= 1, got {dim_out}"):
            make_linear_benchmark(5, dim_out=dim_out)


@pytest.mark.parametrize("a", [-1.0, 0.0])
def test_scalar_linear_without_decay_has_no_certificate(a):
    # dw/dt + a w = b u does not contract for a <= 0
    with pytest.warns(UserWarning, match=f"a={a} <= 0"):
        plant = make_scalar_linear(a=a)
    assert plant.alpha_cert is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert make_scalar_linear(a=0.5).alpha_cert == 0.5


# -- sine-Gordon parameters ---------------------------------------------------


def sine_gordon_grid(n, length=math.pi):
    """Grid step, interior points and the closed-form smallest eigenvalue
    4/h^2 sin^2(pi h / 2L) of the Dirichlet second-difference matrix."""
    h = length / (n + 1)
    return h, h * np.arange(1, n + 1), 4.0 / h**2 * math.sin(math.pi * h / (2 * length)) ** 2


def test_sine_gordon_derived_constants():
    # lambda1 = (pi/L)^2 = 1, epsilon = min(xi/4, lambda1/(2 xi)) = min(0.5, 0.25)
    # feasibility threshold: gamma < epsilon / (2 lambda1) = 0.125
    assert make_sine_gordon(N=50, L=math.pi, xi=2.0, gamma=0.05).alpha_cert is not None
    assert make_sine_gordon(N=50, gamma=0.1249).alpha_cert is not None
    with pytest.warns(UserWarning, match=r"needs gamma < 0\.125\)"):
        assert make_sine_gordon(N=50, gamma=0.1251).alpha_cert is None
    # global attraction: epsilon / (2 (1 + lambda1)) = 0.0625 > gamma
    assert make_sine_gordon(N=50, gamma=0.05).global_ok
    assert make_sine_gordon(N=50, gamma=0.0624).global_ok
    assert not make_sine_gordon(N=50, gamma=0.0626).global_ok


def test_sine_gordon_rejects_tiny_grids():
    with pytest.raises(ValueError, match="need at least 3 interior grid points"):
        make_sine_gordon(N=2)


def test_sine_gordon_infeasible_constructs_with_warning():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        plant = make_sine_gordon(N=30, gamma=0.25)
    assert any("certificate" in str(w.message) for w in rec)
    assert plant.alpha_cert is None


def test_sine_gordon_discrete_lambda1_close_to_analytic():
    plant = make_sine_gordon(N=200)
    _, _, lam_d = sine_gordon_grid(200)
    assert abs(lam_d - 1.0) < 0.02
    # certificate takes the smaller margin of the two readings,
    # epsilon / 2 - gamma lambda1 with lambda1 analytic (1) and discrete
    cands = (0.25 / 2 - 0.05 * 1.0, min(2.0 / 4, lam_d / (2 * 2.0)) / 2 - 0.05 * lam_d)
    assert plant.alpha_cert == pytest.approx(min(cands))
    assert plant.alpha_cert > 0.07


# -- sine-Gordon operators ----------------------------------------------------


def test_sine_gordon_drift_structure():
    plant = make_sine_gordon(N=20)
    n = 20
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(n)
    zeta = rng.standard_normal(n)
    w = np.concatenate([theta, zeta])
    aw = plant.A @ w + plant.F(w)
    # first block: -zeta exactly; second: D2 theta + gamma sin(theta) + xi zeta
    assert np.allclose(aw[:n], -zeta)
    gamma, xi = 0.05, 2.0  # the defaults
    h, _, _ = sine_gordon_grid(n)
    d2theta = (2 * theta - np.concatenate([[0.0], theta[:-1]])
               - np.concatenate([theta[1:], [0.0]])) / h**2
    expect = d2theta + gamma * np.sin(theta) + xi * zeta
    assert np.allclose(aw[n:], expect)


def test_sine_gordon_trace_accuracy_and_order():
    errs = []
    for n in (100, 200):
        plant = make_sine_gordon(N=n)
        _, x, _ = sine_gordon_grid(n)
        w = np.zeros(plant.dim)
        w[:n] = np.sin(x)  # theta'(0) = 1
        errs.append(abs((plant.C @ w)[0] - 1.0))
    assert errs[1] < 1e-3
    order = np.log2(errs[0] / errs[1])
    assert order > 1.7


def test_sine_gordon_control_adjoint_closed_form():
    plant = make_sine_gordon(N=25)
    n = 25
    _, x, lam_d = sine_gordon_grid(n)
    eps = min(2.0 / 4, lam_d / (2 * 2.0))  # the Gram's epsilon, discrete lambda1
    idx = np.nonzero((x > 0.2 * math.pi) & (x < 0.8 * math.pi))[0]  # default window
    rng = np.random.default_rng(4)
    w = rng.standard_normal(plant.dim)
    theta, zeta = w[:n], w[n:]
    bstar = adjoint(plant.B, plant.space_U, plant.space_H) @ w
    assert np.allclose(bstar, (zeta + eps * theta)[idx], atol=1e-12)


def test_sine_gordon_df_matches_finite_differences():
    plant = make_sine_gordon(N=15)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(plant.dim)
    h = rng.standard_normal(plant.dim)
    step = 1e-6
    fd = (plant.F(w + step * h) - plant.F(w - step * h)) / (2 * step)
    assert np.allclose(plant.dF(w) @ h, fd, atol=1e-8)


def test_sine_gordon_lipschitz_bound_holds_on_samples():
    plant = make_sine_gordon(N=40)
    rng = np.random.default_rng(11)
    sp = plant.space_H
    for _ in range(25):
        w1 = sp.sample_ball(rng, 2.0)
        w2 = sp.sample_ball(rng, 2.0)
        lhs = sp.norm(plant.F(w1) - plant.F(w2))
        assert lhs <= plant.lip_F * sp.norm(w1 - w2) + 1e-12


def test_sine_gordon_estimate_alpha_respects_certificate():
    plant = make_sine_gordon(N=60)
    quotient = estimate_alpha(plant, n_samples=25, radius=1.0, seed=2)
    assert quotient >= plant.alpha_cert


def test_sine_gordon_trace_gain_stable_under_refinement():
    vals = []
    for n in (50, 100, 200):
        plant = make_sine_gordon(N=n)
        sv = weighted_singular_values(linear_forwarding(plant), plant.space_H, plant.space_Z)
        vals.append(sv[0])
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1  # refinement tightens, does not drift
    assert d2 / vals[2] < 0.02


# -- Wilson-Cowan -------------------------------------------------------------


def test_mks_constant_kernel_exact():
    # M_ks = h^2 sum over n^2 entries of (0.1 * 1)^2 = 0.01 for any n; the
    # certificate is alpha_gain - M_ks and lip_F = sqrt(M_ks) (L_s + s'(0))
    for n in (32, 64):
        wc = make_wilson_cowan(n=n, kernel=0.1)
        assert wc.alpha_cert == pytest.approx(0.05 - 0.01, abs=1e-14)
        assert wc.lip_F == pytest.approx(2.0 * math.sqrt(0.01), abs=1e-14)
    flat = make_wilson_cowan(n=16, kernel=0.0)
    assert flat.alpha_cert == 0.05 and flat.lip_F == 0.0


def test_wilson_cowan_refuses_grid_without_window_point():
    # the midpoints 0.25 and 0.75 of a 2-point grid miss the window (0.3, 0.7)
    with pytest.raises(ValueError, match=r"\(0\.3, 0\.7\)"):
        make_wilson_cowan(n=2)
    assert make_wilson_cowan(n=3).B.shape[1] == 1  # one window point, 0.5


def test_wilson_cowan_certificate_and_flags():
    wc = make_wilson_cowan()
    assert wc.alpha_cert == pytest.approx(0.04)
    assert wc.global_ok  # alpha_gain 0.05 > 2 M_ks = 0.02
    assert not make_wilson_cowan(alpha_gain=0.019).global_ok
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        bad = make_wilson_cowan(n=16, alpha_gain=0.005)
    assert bad.alpha_cert is None and not bad.global_ok
    assert any("M_ks=0.01" in str(w.message) for w in rec)


def test_wilson_cowan_window_restriction():
    wc = make_wilson_cowan(n=32)
    x = (np.arange(32) + 0.5) / 32  # midpoint grid; the window is (0.3, 0.7)
    idx = np.nonzero((x > 0.3) & (x < 0.7))[0]
    assert idx[0] == 10 and idx[-1] == 21 and idx.size == 12
    rng = np.random.default_rng(1)
    w = rng.standard_normal(32)
    assert np.array_equal(wc.C @ w, w[idx])
    u = rng.standard_normal(idx.size)
    bw = wc.B @ u
    assert np.array_equal(bw[idx], u) and np.count_nonzero(bw) == idx.size
    # matching grams make B* a plain restriction too
    assert np.allclose(adjoint(wc.B, wc.space_U, wc.space_H) @ w, w[idx])


def test_wilson_cowan_drift_and_nonlinearity():
    wc = make_wilson_cowan(n=8, alpha_gain=0.3)
    assert np.allclose(wc.F(np.zeros(8)), 0.0)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(8)
    kop = 0.1 / 8 * np.ones((8, 8))  # kernel times the grid step h = 1/8
    expect = 0.3 * w + kop @ np.tanh(w)  # A w + F(w) collapses the split
    assert np.allclose(wc.A @ w + wc.F(w), expect)


def test_wilson_cowan_df_matches_finite_differences():
    wc = make_wilson_cowan(n=12)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(12)
    h = rng.standard_normal(12)
    step = 1e-6
    fd = (wc.F(w + step * h) - wc.F(w - step * h)) / (2 * step)
    assert np.allclose(wc.dF(w) @ h, fd, atol=1e-9)


def test_wilson_cowan_lipschitz_bound_holds_on_samples():
    wc = make_wilson_cowan()
    rng = np.random.default_rng(7)
    sp = wc.space_H
    for _ in range(40):
        w1 = sp.sample_ball(rng, 10.0)
        w2 = sp.sample_ball(rng, 10.0)
        lhs = sp.norm(wc.F(w1) - wc.F(w2))
        assert lhs <= wc.lip_F * sp.norm(w1 - w2) + 1e-12


def test_wilson_cowan_estimate_alpha_respects_certificate():
    wc = make_wilson_cowan()
    quotient = estimate_alpha(wc, n_samples=50, radius=10.0, seed=3)
    assert quotient >= wc.alpha_cert - 1e-3
