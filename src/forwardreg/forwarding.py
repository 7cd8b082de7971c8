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
come from a single vectorized call, and the adjoint sweeps any block of Z
directions at once: the dim_Z columns of the feedback matrix take one sweep.
A (dim, s) block of states is evaluated as one too, each column to its own
horizon: the lockstep equilibrium search steps its cells this way.

The integral converges because the flow contracts at rate alpha and F is
Lipschitz with F(0) = 0. The neglected tail beyond a node x_k of the flow is
below lip_F ||x_k||_H ||CA^{-1}|| / alpha, and dM's tail per unit direction
below L2 ||x_k||_H ||CA^{-1}|| / (2 alpha) where ||dF(x)|| <= L2 ||x||_H.
Where alpha and L2 are certified, each quadrature column ends at its first
node where both bounds are below tail_tol, so a flow that decays faster
than alpha takes fewer nodes. The a-priori horizon, from
||x_k|| <= e^{-alpha t_k} ||w||, caps that end, and is the end itself for
every other plant.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .evolution import Plant, forward_sweep, horizons, reverse_sweep, trapezoid_weights
from .spaces import weighted_singular_values

__all__ = [
    "ForwardingMap",
    "StateEvaluation",
    "build_forwarding",
    "linear_forwarding",
    "assemble_feedback_matrix",
    "functional_equation_residual",
]

# rank cutoff: sigma_min / sigma_max below this means the range condition fails
_RANK_EPS = 1e-8


def linear_forwarding(plant: Plant) -> np.ndarray:
    """The linear part -C A^{-1}, the (dim_Z, dim) matrix of a map H -> Z.

    Assembled as dim(Z) solves on one LU factorization of A^T:
    C A^{-1} = (A^{-T} C^T)^T. A singular A (a zero pivot) raises a
    ValueError.
    """
    try:
        return -np.linalg.solve(plant.A.T, plant.C.T).T
    except np.linalg.LinAlgError:
        raise ValueError("A is singular, so -C A^{-1} is undefined") from None


def _dF_growth(plant: Plant) -> Optional[float]:
    """L2 with ||dF(x)||_{H->H} <= L2 ||x||_H for every x, or None.

    Needs sigma'(0) = 0 and the plant's ``lip_dsigma``: then |sigma'(S_i x)|
    <= lip_dsigma ||S_i||_{H*} ||x||_H, so dF(x) = K diag(sigma'(S x)) S
    gives L2 = lip_dsigma max_i ||S_i||_{H*} ||K||_{l2->H} ||S||_{H->l2}.
    With W = S G_H^{-1} S^T, ||S_i||_{H*}^2 is W's diagonal and
    ||S||_{H->l2}^2 its largest eigenvalue; ||K||_{l2->H}^2 is that of
    K^T G_H K. None for a linear plant.
    """
    if plant.lip_dsigma is None or not plant.flat_at_origin or not plant.lip_F:
        return None
    space_h = plant.space_H
    w = plant.S @ space_h.solve_gram(plant.S.T)
    k_sq = _top_eigenvalue(plant.K.T @ space_h.gram @ plant.K)
    return float(plant.lip_dsigma * math.sqrt(np.diag(w).max() * _top_eigenvalue(w) * k_sq))


def _top_eigenvalue(sym: np.ndarray) -> float:
    """The largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(sym)[-1])


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
    dF_growth : float or None
        L2 with ||dF(x)|| <= L2 ||x||_H (:func:`_dF_growth`), where the plant
        certifies one.
    tail_gain : float or None
        g = sqrt(lambda_max(G_H)) ||CA^{-1}|| max(lip_F, L2 / 2) / alpha: a
        quadrature ends at its first node k >= 1 with g ||x_k||_2 <= tail_tol.
        None where alpha or L2 is not certified; then every evaluation
        takes its whole :meth:`horizon`.
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

        self.dF_growth = _dF_growth(plant)
        alpha = plant.alpha_cert
        self.tail_gain = None
        if self.dF_growth is not None and alpha is not None:
            # ||x||_H <= sqrt(lambda_max(G_H)) ||x||_2 makes the stop test O(dim)
            h_over_l2 = math.sqrt(_top_eigenvalue(space_h.gram))
            self.tail_gain = (h_over_l2 * self.ca_inv_norm
                              * max(plant.lip_F, self.dF_growth / 2.0) / alpha)

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

        self.feasible = bool(self.range_ok and alpha is not None)
        self.lam_tilde = self.lam / 3.0
        if self.feasible:
            self.rho = self.b_norm**2 * max(1.0, 2.0 / alpha)
            self.kappa = min(alpha / 4.0, self.lam_tilde / 4.0)
        else:
            self.rho = None
            self.kappa = None

    def horizon(self, w_norm: float) -> float:
        """Quadrature horizon for a state of the given H-norm: the cap on
        where a quadrature may stop (``tail_gain``), and its end where none
        is certified.

        Set so the neglected tail lip_F * e^{-alpha tau} ||w|| ||CA^{-1}|| / alpha
        is below tail_tol, never below 5/alpha, clamped to tau_max. Without a
        contraction certificate the tail bound is unverifiable and the horizon
        is tau_max; the built-in plant constructors warn of that, once.
        """
        plant = self.plant
        alpha = plant.alpha_cert
        if alpha is None:
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
        if plant.alpha_cert is None:
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

    The base flow T_t w is integrated once on the quadrature grid; M comes
    from it, and dM in any direction and the adjoint actions reuse its
    slopes sigma'(S T_t w), the only part of it kept. Closed-loop stepping
    builds one of these per state and calls M and the adjoint from it.

    ``w`` is a state (dim,) or a (dim, s) block of s states evaluated
    together; then every evaluation takes and returns (., s) blocks, column
    j belonging to state j. The base sweep starts from the trapezoid weights
    of each column's a-priori :meth:`ForwardingMap.horizon` and, where the
    map has a ``tail_gain``, ends a column where its flow has decayed. The
    dM and adjoint sweeps take the weight table it realized, so they are the
    transposes of its quadrature; ``nqs`` reads the columns' horizons off it.
    A block sweeps ``nq`` = max(nqs) nodes, on (nq + 1, m, s) slopes, and a
    block of one column is bitwise the vector evaluation (wider: to roundoff).
    """

    def __init__(self, fmap: ForwardingMap, w: np.ndarray):
        self.fmap = fmap
        self.plant = plant = fmap.plant
        self.w = np.asarray(w, dtype=float)

        def cap(x):
            """One column's a-priori horizon in nodes."""
            if not plant.lip_F:
                return 0  # F = 0: Q and its derivative quadrature vanish
            w_norm = plant.space_H.norm(x)
            if not w_norm and plant.flat_at_origin:
                return 0  # dF(0) = 0: Q vanishes to second order at the origin
            return max(int(math.ceil(fmap.horizon(w_norm) / fmap.dt_quad)), 1)

        caps = [cap(x) for x in self.w.reshape(plant.dim, -1).T]
        self.nq = max(caps)
        if self.nq == 0:
            # linear path: M = -C A^{-1} w and dM = -C A^{-1}
            self.q = np.zeros_like(self.w)
            return
        self._step = plant.solver.step(fmap.dt_quad)
        # the slopes sigma'(S x_k) at every base node, dF(x_k) = K diag(D_k) S,
        # come from the S x_k that the base sweep gathers anyway
        gathered = []

        def sigma_at(k, y):
            gathered.append(y)
            return plant.sigma(y)

        # Q = int F(T_t w) dt by the trapezoid rule, ended where g ||x_k||_2 <= tail_tol
        stop = fmap.tail_tol / fmap.tail_gain if fmap.tail_gain else None
        c = trapezoid_weights(np.array(caps) if self.w.ndim == 2 else caps[0])
        base, qs, self._c = forward_sweep(self._step, self.w, sigma_at, c, stop)
        self.nq = len(base) - 1
        self.q = plant.K.dot(qs)
        self._slopes = plant.dsigma(np.array(gathered[:self.nq + 1]))

    @property
    def nqs(self):
        """The realized horizons in nodes: an int for one state, an int array for a block."""
        if self.w.ndim == 1:
            return self.nq
        return horizons(self._c) if self.nq else np.zeros(self.w.shape[1], dtype=int)

    # -- primal evaluations -------------------------------------------------

    def M(self) -> np.ndarray:
        """Forwarding map M(w) = -C A^{-1} (w - Q(w)).

        Row by column dot products: a product with a (dim, s) block would
        round a column by the block's width, and the lockstep search's
        columns would then depend on how its cells are blocked.
        """
        m_lin, x = self.fmap.m_lin, self.w - self.q
        return np.vecdot(m_lin, x) if x.ndim == 1 else np.vecdot(m_lin[:, None], x.T)

    def dM(self, h: np.ndarray) -> np.ndarray:
        """Differential dM(w) h along the base flow; one state takes a (dim, c) block too."""
        h = np.asarray(h, dtype=float)
        if self.nq == 0:
            return self.fmap.m_lin @ h
        D = self._slopes
        if D.ndim == h.ndim:  # one state's slopes act on every column of h
            D = D[..., None]
        _, qs, _ = forward_sweep(self._step, h, lambda k, y: D[k] * y, self._c)
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
        psi_t = self.fmap._mlin_t_gz.dot(np.asarray(zeta, dtype=float))
        if self.nq == 0:
            return psi_t
        return psi_t - reverse_sweep(self._step, self._slopes, psi_t, self._c)

    def dM_adjoint(self, zeta: np.ndarray) -> np.ndarray:
        return self.plant.space_H.solve_gram(self._adjoint_gram_coords(zeta))

    def dM_adjoint_B(self, zeta: np.ndarray) -> np.ndarray:
        """B* dM(w)* zeta, the feedback direction for integrator error zeta.

        A (dim_Z, c) block of directions gives the (dim_U, c) block; for a
        block of s states, the (dim_Z, s) block of their own directions gives
        the (dim_U, s) block of their controls.
        """
        gh = self._adjoint_gram_coords(zeta)
        return self.plant.space_U.solve_gram(self.plant.B.T.dot(gh))


def assemble_feedback_matrix(fmap: ForwardingMap, w: np.ndarray) -> np.ndarray:
    """Dense (dim_U, dim_Z) matrix of z -> B* dM(w)* z.

    One base trajectory and one adjoint sweep of the whole Z basis as a
    block. Used for the coercivity constant and its uniform sampled check.
    """
    return StateEvaluation(fmap, w).dM_adjoint_B(np.eye(fmap.plant.space_Z.dim))


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
