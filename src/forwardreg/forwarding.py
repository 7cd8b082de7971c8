"""Forwarding map, its differential and adjoint, and the controller gains.

For the semilinear plant dw/dt + A w + F(w) = B u the forwarding map has the
quadrature form

    M(w) = -C A^{-1} (w - Q(w)),      Q(w) = integral_0^inf F(T_t w) dt,

where T_t is the uncontrolled flow. Its differential replaces Q by the
quadrature of dF(T_t w) v(t) with v the tangent flow of the direction, and
the adjoint of the differential is the exact discrete adjoint of those
quadrature steps, so duality holds to roundoff. The base flow, the tangent
quadrature and its adjoint run on the two sweep kernels of
:mod:`forwardreg.evolution` (``forward_sweep`` and ``reverse_sweep``). With
F(w) = K sigma(S w), the slopes sigma'(S T_t w) of the whole base trajectory
come from one vectorized call, and the adjoint sweeps any block of Z
directions at once: the dim_Z columns of the feedback matrix take one sweep.
A (dim, s) block of states is evaluated as one too, each column to its own
horizon: the lockstep equilibrium search steps its cells this way.

The integral converges because the flow contracts at rate alpha and F is
Lipschitz with F(0) = 0; the neglected tail beyond a horizon tau is below
lip_F * e^{-alpha tau} * ||w|| * ||CA^{-1}|| / alpha, which fixes the
per-evaluation horizon.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .evolution import Plant, forward_sweep, reverse_sweep
from .spaces import weighted_singular_values

__all__ = [
    "ForwardingMap",
    "StateEvaluation",
    "build_forwarding",
    "linear_forwarding",
    "assemble_feedback_matrix",
    "uniform_coercivity_check",
    "functional_equation_residual",
]

# rank cutoff: sigma_min / sigma_max below this means the range condition fails
_RANK_EPS = 1e-8


def linear_forwarding(plant: Plant) -> np.ndarray:
    """The linear part -C A^{-1}, the (dim_Z, dim) matrix of a map H -> Z.

    Assembled with dim(Z) transposed solves on one LU factorization of A:
    C A^{-1} = (A^{-T} C^T)^T. A singular A (a zero pivot) raises a
    ValueError.
    """
    with warnings.catch_warnings():
        # a zero pivot is refused below, by name
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(plant.A)
    if not np.all(np.diag(lu[0])):
        raise ValueError("A is singular, so -C A^{-1} is undefined")
    return -sla.lu_solve(lu, plant.C.T, trans=1).T


class ForwardingMap:
    """Forwarding construction for one plant: map, differential, gains.

    Not meant to be instantiated directly; use :func:`build_forwarding`.
    Immutable after construction; evaluations are pure and may run
    concurrently.

    Attributes
    ----------
    m_lin : (dim_Z, dim) array
        The linear part -C A^{-1}.
    tau_max : float
        Ceiling on the per-evaluation quadrature horizon.
    dt_quad, tail_tol : float
        Quadrature step and accepted tail bound for the truncated integral.
    lam, lam_tilde : float
        Coercivity constant and lam/3.
    rho, kappa : float or None
        Lyapunov weight and certified decay rate; None when the plant is
        infeasible (lam = 0) or has no alpha.
    """

    def __init__(self, plant: Plant, dt_quad: float, tail_tol: float, tau_max: float):
        self.plant = plant
        self.dt_quad = float(dt_quad)
        self.tail_tol = float(tail_tol)
        self.tau_max = float(tau_max)

        space_h, space_u, space_z = plant.space_H, plant.space_U, plant.space_Z
        self.m_lin = linear_forwarding(plant)
        self.ca_inv_norm = float(weighted_singular_values(self.m_lin, space_h, space_z)[0])
        # Gram-multiplied pieces reused by every adjoint evaluation:
        # psi_tilde = G_H M_lin* zeta = M_lin^T G_Z zeta
        self._mlin_t_gz = np.ascontiguousarray(self.m_lin.T @ space_z.gram)

        svals_b = weighted_singular_values(plant.B, space_u, space_h)
        self.b_norm = float(svals_b[0]) if svals_b.size else 0.0

        k0 = assemble_feedback_matrix(self, np.zeros(plant.dim))
        svals = weighted_singular_values(k0, space_z, space_u)
        smax = float(svals[0]) if svals.size else 0.0
        smin = float(svals[-1]) if svals.size else 0.0
        self.lam = smin**2
        self.range_ok = smax > 0.0 and (smin / smax) > _RANK_EPS

        # stiffness of the explicit integrator update: spectral radius of the
        # eta-block M B K; the z-step is only stable for dt well below
        # 2 / loop_gain, so simulation drivers clamp their dt with this
        eta_block = self.m_lin @ plant.B @ k0
        eigs = np.linalg.eigvals(eta_block) if eta_block.size else np.zeros(0)
        self.loop_gain = float(np.max(np.abs(eigs))) if eigs.size else 0.0

        alpha = plant.alpha_cert
        self.feasible = bool(self.range_ok and alpha is not None and alpha > 0)
        self.lam_tilde = self.lam / 3.0
        if self.feasible:
            self.rho = self.b_norm**2 * max(1.0, 2.0 / alpha)
            self.kappa = min(alpha / 4.0, self.lam_tilde / 4.0)
        else:
            self.rho = None
            self.kappa = None

    @property
    def dim_Z(self) -> int:
        return self.plant.space_Z.dim

    def horizon(self, w_norm: float) -> float:
        """Quadrature horizon for a state of the given H-norm.

        Set so the neglected tail lip_F * e^{-alpha tau} ||w|| ||CA^{-1}|| / alpha
        is below tail_tol, never below 5/alpha, clamped to tau_max.
        """
        plant = self.plant
        alpha = plant.alpha_cert
        if alpha is None or alpha <= 0:
            warnings.warn(
                "no contraction certificate: quadrature tail bound unverifiable, "
                "using the tau_max ceiling",
                stacklevel=2,
            )
            return self.tau_max
        ratio = plant.lip_F * w_norm * self.ca_inv_norm / (alpha * self.tail_tol)
        tau = 5.0 / alpha
        if ratio > 1.0:
            tau = max(math.log(ratio) / alpha, tau)
        return min(tau, self.tau_max)

    def __repr__(self) -> str:
        return (
            f"ForwardingMap(plant={self.plant.name!r}, dt_quad={self.dt_quad}, "
            f"lam={self.lam:.4g}, feasible={self.feasible})"
        )


def build_forwarding(
    plant: Plant,
    dt_quad: float,
    tail_tol: float = 1e-6,
    tau_max: Optional[float] = None,
) -> ForwardingMap:
    """Construct the forwarding map and gains for a plant.

    ``tau_max`` defaults to 40/alpha when the plant has a contraction
    certificate; plants without one must pass it explicitly (the horizon
    then always sits at the ceiling). ``dt_quad``, ``tail_tol`` and
    ``tau_max`` must be finite and positive, and A nonsingular.
    """
    if tau_max is None:
        if plant.alpha_cert is None or plant.alpha_cert <= 0:
            raise ValueError(
                "tau_max must be given for plants without a contraction certificate"
            )
        tau_max = 40.0 / plant.alpha_cert
    for name, value in (("dt_quad", dt_quad), ("tail_tol", tail_tol), ("tau_max", tau_max)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return ForwardingMap(plant, dt_quad, tail_tol, tau_max)


class StateEvaluation:
    """All forwarding evaluations at one state, sharing one base trajectory.

    The base flow T_t w is integrated once on the quadrature grid; M, dM in
    any direction, and the adjoint actions all reuse it. Closed-loop stepping
    builds one of these per state and calls M and the adjoint from it.

    ``w`` is a state (dim,) or a (dim, s) block of s states evaluated
    together; then every evaluation takes and returns (., s) blocks, column
    j belonging to state j. Each column has its own horizon in nodes
    (``nqs``: an int for one state, an int array for a block); the block
    sweeps ``nq`` = max(nqs) nodes, and the slopes are (nq + 1, m, s). A
    block of one column is bitwise the vector evaluation; wider blocks
    agree with it to roundoff.
    """

    def __init__(self, fmap: ForwardingMap, w: np.ndarray):
        self.fmap = fmap
        self.plant = plant = fmap.plant
        self.w = np.asarray(w, dtype=float)

        def nodes(x):
            """One column's horizon in nodes."""
            if not plant.lip_F:
                return 0  # F = 0: Q and its derivative quadrature vanish
            w_norm = plant.space_H.norm(x)
            if not w_norm and plant.flat_at_origin:
                return 0  # dF(0) = 0: Q vanishes to second order at the origin
            return max(int(math.ceil(fmap.horizon(w_norm) / fmap.dt_quad)), 1)

        nqs = [nodes(x) for x in self.w.reshape(plant.dim, -1).T]
        self.nqs = np.array(nqs) if self.w.ndim == 2 else nqs[0]
        self.nq = max(nqs)
        if self.nq == 0:
            # linear path: M = -C A^{-1} w and dM = -C A^{-1}
            self.base_states = None
            self.q = np.zeros_like(self.w)
            return
        self._step = plant.solver.step(fmap.dt_quad)
        # the slopes sigma'(S x_k) at every base node, dF(x_k) = K diag(D_k) S,
        # come from the S x_k that the base sweep gathers anyway
        gathered = []

        def sigma_at(k, y):
            gathered.append(y)
            return plant.sigma(y)

        # trapezoid accumulation of Q = int F(T_t w) dt along the base flow
        self.base_states, qs = forward_sweep(self._step, self.w, sigma_at, self.nqs)
        self.q = plant.K @ qs
        self._slopes = plant.dsigma(np.array(gathered))

    # -- primal evaluations -------------------------------------------------

    def M(self) -> np.ndarray:
        """Forwarding map M(w) = -C A^{-1} (w - Q(w))."""
        return self.fmap.m_lin @ (self.w - self.q)

    def dM(self, h: np.ndarray) -> np.ndarray:
        """Differential dM(w) h along the base flow at w."""
        h = np.asarray(h, dtype=float)
        if self.nq == 0:
            return self.fmap.m_lin @ h
        D = self._slopes
        _, qs = forward_sweep(self._step, h, lambda k, y: D[k] * y, self.nqs)
        return self.fmap.m_lin @ (h - self.plant.K @ qs)

    # -- adjoint evaluations ------------------------------------------------

    def _adjoint_gram_coords(self, zeta: np.ndarray) -> np.ndarray:
        """G_H-multiplied dM(w)* zeta, i.e. G_H (psi - r_0).

        The reverse sweep of the tangent quadrature, started from psi = G_H
        M_lin* zeta; it runs in Gram-multiplied coordinates, so it needs no
        Gram solves. For one state, ``zeta`` is a vector or a (dim_Z, c)
        block of c directions, swept together; for a block of s states it is
        (dim_Z, s), one direction per state.
        """
        psi_t = self.fmap._mlin_t_gz @ np.asarray(zeta, dtype=float)
        if self.nq == 0:
            return psi_t
        r = reverse_sweep(self._step, self._slopes, psi_t, np.zeros_like(psi_t), self.nqs)
        return psi_t - r[0]

    def dM_adjoint(self, zeta: np.ndarray) -> np.ndarray:
        return self.plant.space_H.solve_gram(self._adjoint_gram_coords(zeta))

    def dM_adjoint_B(self, zeta: np.ndarray) -> np.ndarray:
        """B* dM(w)* zeta, the feedback direction for integrator error zeta.

        A (dim_Z, c) block of directions gives the (dim_U, c) block; for a
        block of s states, the (dim_Z, s) block of their own directions gives
        the (dim_U, s) block of their controls.
        """
        gh = self._adjoint_gram_coords(zeta)
        return self.plant.space_U.solve_gram(self.plant.B.T @ gh)


def assemble_feedback_matrix(fmap: ForwardingMap, w: np.ndarray) -> np.ndarray:
    """Dense (dim_U, dim_Z) matrix of z -> B* dM(w)* z.

    One base trajectory and one adjoint sweep of the whole Z basis as a
    block. Used for the coercivity constant and its uniform sampled check.
    """
    return StateEvaluation(fmap, w).dM_adjoint_B(np.eye(fmap.dim_Z))


def uniform_coercivity_check(
    fmap: ForwardingMap, n_samples: int, radius: float, seed: int = 0
) -> float:
    """Min over sampled states of sigma_min(z -> B* dM(w)* z)^2.

    The gain formulas rely on this staying at least lam_tilde = lam/3 over
    the sampled ball.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    space = fmap.plant.space_H
    worst = np.inf
    for _ in range(n_samples):
        w = space.sample_ball(rng, radius) if radius > 0 else np.zeros(space.dim)
        k_mat = assemble_feedback_matrix(fmap, w)
        svals = weighted_singular_values(k_mat, fmap.plant.space_Z, fmap.plant.space_U)
        smin = float(svals[-1]) if svals.size else 0.0
        worst = min(worst, smin**2)
    return float(worst)


def functional_equation_residual(fmap: ForwardingMap, w: np.ndarray) -> float:
    """Normalized residual of dM(w) applied to the full drift plus C w.

    The exact forwarding map satisfies dM(w)(A w + F(w)) + C w = 0; the
    quadrature evaluation leaves a residual that shrinks as dt_quad and the
    horizon are refined. Normalization: ||C w||_Z + ||A w + F(w)||_H + floor.
    """
    w = np.asarray(w, dtype=float)
    plant = fmap.plant
    drift = plant.A @ w + plant.F(w)
    cw = plant.C @ w
    num = plant.space_Z.norm(StateEvaluation(fmap, w).dM(drift) + cw)
    den = plant.space_Z.norm(cw) + plant.space_H.norm(drift) + 1e-14
    return float(num / den)
