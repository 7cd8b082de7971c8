"""Example plants: damped sine-Gordon, a nonlocal neural-field model, a
seeded linear benchmark and a scalar linear plant.

Each constructor returns a fully certified Plant: operators, Gram weights
matching the continuous energy products, a contraction certificate alpha
(when the parameter regime admits one), and Lipschitz bounds of F and of
sigma' for the quadrature horizon and its a-posteriori end.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from .evolution import Plant
from .spaces import SpaceSpec

__all__ = [
    "make_linear_benchmark",
    "make_scalar_linear",
    "make_sine_gordon",
    "make_wilson_cowan",
]


def _check_finite(positive: bool = False, **params) -> None:
    """Raise a ValueError naming the first of ``params`` that is not finite,
    or not > 0 when ``positive``."""
    for name, value in params.items():
        if not (math.isfinite(value) and (value > 0 or not positive)):
            rule = "finite and positive" if positive else "finite"
            raise ValueError(f"{name} must be {rule}, got {value}")


# -- linear benchmark ---------------------------------------------------------


def make_linear_benchmark(
    n: int = 20, alpha: float = 0.5, seed: int = 0, dim_out: int = 2,
    rank_deficient: bool = False,
) -> Plant:
    """Linear plant A = alpha I + skew with random full-rank B, C.

    The skew part contributes nothing to the quadratic form, so the
    monotonicity constant is exactly alpha. Seeds whose C A^{-1} B is close
    to rank-deficient are redrawn. ``rank_deficient`` gives the negative
    control: the last output row duplicates the first (C is zero when
    dim_out is 1), so C A^{-1} B loses rank and lambda = 0. ``dim_out`` must
    be between 1 and the state dimension ``n``.
    """
    for name, value in (("n", n), ("dim_out", dim_out)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if dim_out > n:
        raise ValueError(f"dim_out must be <= the state dimension {n}, got {dim_out}")
    _check_finite(alpha=alpha, positive=True)
    sp = SpaceSpec(n, np.eye(n), "H")
    su = SpaceSpec(dim_out, np.eye(dim_out), "U")
    sz = SpaceSpec(dim_out, np.eye(dim_out), "Z")
    for attempt in range(10):
        rng = np.random.default_rng(seed + attempt)
        skew = rng.standard_normal((n, n))
        skew = 0.5 * (skew - skew.T)
        amat = alpha * np.eye(n) + skew
        b = rng.standard_normal((n, dim_out))
        c = rng.standard_normal((dim_out, n))
        core = c @ np.linalg.solve(amat, b)
        svals = np.linalg.svd(core, compute_uv=False)
        if svals[-1] > 1e-6 * svals[0]:
            break
    else:
        raise RuntimeError("could not draw a benchmark with full-rank CA^-1 B")
    if rank_deficient:
        c[-1] = c[0] if dim_out > 1 else 0.0
    return Plant(
        name="linear-benchmark",
        space_H=sp,
        space_U=su,
        space_Z=sz,
        A=amat,
        B=b,
        C=c,
        alpha_cert=float(alpha),
        lip_F=0.0,
    )


def make_scalar_linear(a: float = 2.0, b: float = 1.0, c: float = 1.0) -> Plant:
    """Scalar plant dw/dt + a w = b u, y = c w, with alpha = a.

    For a <= 0 the plant does not contract: it carries no certificate
    (alpha_cert is None) and a warning is emitted.
    """
    _check_finite(a=a, b=b, c=c)
    if a <= 0:
        warnings.warn(f"scalar plant a={a} <= 0: no contraction certificate",
                      stacklevel=2)
    sp = SpaceSpec(1, np.eye(1), "H")
    return Plant(
        name="scalar-linear",
        space_H=sp,
        space_U=sp,
        space_Z=sp,
        A=np.array([[a]]),
        B=np.array([[b]]),
        C=np.array([[c]]),
        alpha_cert=float(a) if a > 0 else None,
        lip_F=0.0,
    )


# -- sine-Gordon --------------------------------------------------------------


def _dirichlet_lambda1(n: int, h: float) -> float:
    """The least eigenvalue 4/h^2 sin^2(pi / (2 (n + 1))) of the Dirichlet
    second-difference matrix tridiag(-1, 2, -1) / h^2 on n interior points:
    the discrete Poincare constant of the grid."""
    return 4.0 / h**2 * math.sin(math.pi / (2 * (n + 1))) ** 2


def make_sine_gordon(
    N: int = 200,
    L: float = math.pi,
    xi: float = 2.0,
    gamma: float = 0.05,
    control_window: Optional[tuple[float, float]] = None,
) -> Plant:
    """Damped sine-Gordon on (0, L) with Dirichlet ends, finite differences
    and the epsilon-weighted Gram.

    State (theta, zeta = d theta/dt) on N interior grid points; control acts
    on the zeta slot over ``control_window`` (default the middle 60 % of
    (0, L)); the measured output is the one-sided Neumann trace at x = 0.
    ``epsilon`` weights the energy product and ``lambda1`` is the optimal
    interval Poincare constant (pi/L)^2; both are derived, not free. The
    certified range is gamma < epsilon / (2 lambda1); outside it the plant
    constructs fine but carries no contraction certificate (alpha_cert is
    None) and a warning is emitted. Global attraction is certified when
    also epsilon / (2 (1 + lambda1)) > gamma.
    """
    if N < 3:
        raise ValueError("need at least 3 interior grid points")
    _check_finite(xi=xi, gamma=gamma, L=L, positive=True)
    if control_window is None:
        control_window = (0.2 * L, 0.8 * L)
    a_win, b_win = control_window
    if not (0.0 <= a_win < b_win <= L):
        raise ValueError("control window must be a sub-interval of (0, L)")
    lam_a = (math.pi / L) ** 2
    eps_a = min(xi / 4.0, lam_a / (2.0 * xi))

    n = N
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)

    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    d2 = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)

    lambda1_disc = _dirichlet_lambda1(n, h)

    # the certificate takes the smaller margin of the analytic and discrete
    # readings; the Gram uses the discrete epsilon
    epsilon = min(xi / 4.0, lambda1_disc / (2.0 * xi))
    alpha = min(eps_a / 2.0 - gamma * lam_a, epsilon / 2.0 - gamma * lambda1_disc)

    feasible = gamma < eps_a / (2.0 * lam_a) and alpha > 0
    alpha_cert: Optional[float] = float(alpha) if feasible else None
    if not feasible:
        warnings.warn(
            f"sine-Gordon gamma={gamma} exceeds the certified range "
            f"(needs gamma < {eps_a / (2 * lam_a):.4g}); no contraction certificate",
            stacklevel=2,
        )

    dim = 2 * n
    amat = np.zeros((dim, dim))
    amat[:n, n:] = -np.eye(n)
    amat[n:, :n] = d2 + gamma * np.eye(n)
    amat[n:, n:] = xi * np.eye(n)

    s_stiff = h * d2
    gram = np.zeros((dim, dim))
    gram[:n, :n] = s_stiff + epsilon**2 * h * np.eye(n)
    gram[:n, n:] = epsilon * h * np.eye(n)
    gram[n:, :n] = epsilon * h * np.eye(n)
    gram[n:, n:] = h * np.eye(n)
    space_h = SpaceSpec(dim, gram, "H")

    idx = np.nonzero((x > a_win) & (x < b_win))[0]
    if idx.size == 0:
        raise ValueError("control window contains no grid points")
    m = idx.size
    space_u = SpaceSpec(m, h * np.eye(m), "U")
    b_mat = np.zeros((dim, m))
    b_mat[n + idx, np.arange(m)] = 1.0

    space_z = SpaceSpec(1, np.eye(1), "Z")
    c_mat = np.zeros((1, dim))
    # second-order one-sided Neumann trace (-3 t0 + 4 t1 - t2)/(2h), t0 = 0
    c_mat[0, 0] = 2.0 / h
    c_mat[0, 1] = -0.5 / h

    # F(w) = gamma [0; sin(theta) - theta]: K = gamma [0; I], S = [I 0]
    k_mat = np.zeros((dim, n))
    k_mat[n:] = gamma * np.eye(n)
    s_mat = np.eye(n, dim)

    return Plant(
        name="sine-gordon",
        space_H=space_h,
        space_U=space_u,
        space_Z=space_z,
        A=amat,
        B=b_mat,
        C=c_mat,
        alpha_cert=alpha_cert,
        lip_F=2.0 * gamma / math.sqrt(lambda1_disc),
        lip_dsigma=1.0,  # |d/dt (cos t - 1)| = |sin t| <= 1
        K=k_mat,
        S=s_mat,
        sigma=lambda v: np.sin(v) - v,
        dsigma=lambda v: np.cos(v) - 1.0,
        global_ok=feasible and eps_a / (2.0 * (1.0 + lam_a)) > gamma,
    )


# -- Wilson-Cowan type neural field -------------------------------------------


def _tanh_ds(v):
    return 1.0 / np.cosh(v) ** 2


# the field's saturating nonlinearity s = tanh has s(0) = 0, derivative
# _tanh_ds and derivative bound _L_S; control and output act on _WC_WINDOW
_L_S = 1.0
_WC_WINDOW = (0.3, 0.7)


def make_wilson_cowan(n: int = 32, alpha_gain: float = 0.05, kernel: float = 0.1) -> Plant:
    """Nonlocal scalar field on Omega = (0, 1), midpoint grid of n points,
    with restriction output on the window.

    ``kernel`` is the constant value of the kernel k(x, nu). M_ks is the
    quadrature of |k * L_s|^2 over Omega x Omega, with L_s = 1 the
    derivative bound of s = tanh. The plant is certified when
    alpha_gain > M_ks (alpha_cert = alpha_gain - M_ks) and globally
    attracting when alpha_gain > 2 M_ks.
    """
    if n < 3:
        raise ValueError(f"need at least 3 grid points: a coarser midpoint grid "
                         f"has no point inside the control window {_WC_WINDOW}")
    _check_finite(alpha_gain=alpha_gain, positive=True)
    _check_finite(kernel=kernel)
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    kernel_values = np.full((n, n), float(kernel))
    # tensor-product midpoint quadrature of |k(x, nu) L_s|^2; the derivative
    # bound L_s replaces the pointwise s'(nu), which upper-bounds every
    # reading of that factor
    m_ks = float(h**2 * np.sum((kernel_values * _L_S) ** 2))

    kop = kernel_values * h  # midpoint quadrature of the kernel integral
    sp0 = float(_tanh_ds(0.0))
    amat = alpha_gain * np.eye(n) + sp0 * kop
    space_h = SpaceSpec(n, h * np.eye(n), "H")

    a_win, b_win = _WC_WINDOW
    idx = np.nonzero((x > a_win) & (x < b_win))[0]
    if idx.size == 0:
        raise ValueError("control window contains no grid points")
    m = idx.size
    space_u = SpaceSpec(m, h * np.eye(m), "U")
    space_z = SpaceSpec(m, h * np.eye(m), "Z")
    b_mat = np.zeros((n, m))
    b_mat[idx, np.arange(m)] = 1.0
    c_mat = b_mat.T.copy()

    feasible = alpha_gain > m_ks
    alpha_cert = float(alpha_gain - m_ks) if feasible else None
    if not feasible:
        warnings.warn(
            f"alpha_gain={alpha_gain} <= M_ks={m_ks:.4g}: "
            "no contraction certificate",
            stacklevel=2,
        )
    # Hilbert-Schmidt bound on the kernel operator times the worst slope
    # deviation of s from its slope at 0
    hs_norm = math.sqrt(m_ks) / _L_S
    lip_f = hs_norm * (_L_S + abs(sp0))

    return Plant(
        name="wilson-cowan",
        space_H=space_h,
        space_U=space_u,
        space_Z=space_z,
        A=amat,
        B=b_mat,
        C=c_mat,
        alpha_cert=alpha_cert,
        lip_F=lip_f,
        lip_dsigma=1.0,  # |d/dt (sech^2 t - 1)| = |2 sech^2 t tanh t| <= 0.77
        # F(w) = kop (s(w) - s'(0) w): K = kop, S = I
        K=kop,
        S=np.eye(n),
        sigma=lambda v: np.tanh(v) - v,  # s'(0) = sp0 = 1 exactly: no product
        dsigma=lambda v: _tanh_ds(v) - sp0,
        global_ok=feasible and alpha_gain > 2.0 * m_ks,
    )
