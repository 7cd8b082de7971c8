"""Semilinear evolution: plants, IMEX stepping, tangent and adjoint flows.

The state equation is dw/dt + A w + F(w) = f with A linear monotone and F a
Lipschitz semilinear part vanishing at the origin, of the structured form
F(w) = K sigma(S w) with an elementwise sigma. Time stepping is IMEX Euler,
implicit in A and explicit in F, through one dense P = (I + dt A)^{-1} per dt:

    w' = P (w + dt (f - F(w))).

The tangent flow integrates the first variation along a stored base
trajectory with the same scheme, and the adjoint flow propagates the exact
Gram-weighted adjoint of every discrete tangent step in reverse, so discrete
duality holds to roundoff rather than to O(dt). Along a base trajectory the
Jacobians are J_k = K diag(D_k) S with the slopes D_k = sigma'(S w_k).

These flows and the quadratures of the forwarding module all run on two
kernels, :func:`forward_sweep` and its exact transpose :func:`reverse_sweep`,
so this module alone fixes the discrete step, trapezoid weights and transpose.
Both read a :class:`SweepStep`, built once per step size: P, a row-major
P^T, and the maps x -> S x, (x, phi) -> x - dt K phi and their transposes.
Each node takes exactly one product with P (forward) or P^T (reverse) and
builds no map. Where S is a contiguous block of identity rows (sine-Gordon's
[I 0], Wilson-Cowan's I), S x is a gather and S^T a scatter; where K is a
uniformly scaled block of identity columns (sine-Gordon's gamma [0; I]),
K phi is a scatter and K^T a gather. Any other S or K is a dense product.
Both kernels sweep a state vector or a (dim, s) block of s states, each
column to its own horizon; the reverse sweep takes the slopes as one
(n + 1, m) block, or (n + 1, m, s) for a block of states, and a vector state
may carry any number of cotangent columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg as sla

from .spaces import SpaceSpec

__all__ = [
    "Plant",
    "Trajectory",
    "OperatorSolver",
    "SweepStep",
    "trapezoid_weights",
    "forward_sweep",
    "reverse_sweep",
    "flow",
    "tangent_flow",
    "adjoint_tangent_flow",
    "estimate_alpha",
    "contraction_check",
]


class SweepStep(NamedTuple):
    """The IMEX step at one dt, as the sweep kernels apply it.

    ``p`` is P = (I + dt A)^{-1} and ``pt`` its transpose, both row-major.
    The four maps act on axis 0, so each takes a vector or a (dim, s) block:
    ``gather_s(x)`` = S x, ``scatter_k(x, phi)`` = x - dt K phi,
    ``gather_k(a)`` = dt K^T a and ``scatter_s(a, b)`` = a + S^T b, which
    may write into ``a``.
    """

    dt: float
    p: np.ndarray
    pt: np.ndarray
    gather_s: Callable
    scatter_k: Callable
    gather_k: Callable
    scatter_s: Callable


def _identity_block(mat: np.ndarray) -> Optional[tuple[slice, float]]:
    """(rows, g) when the (m, n) ``mat`` is g times the identity rows ``rows``
    of I_n, a contiguous block; None otherwise."""
    m, n = mat.shape
    if not m:
        return slice(0, 0), 1.0
    first = int(np.argmax(mat[0] != 0))
    g = float(mat[0, first])
    if first + m > n or not np.array_equal(mat, g * np.eye(m, n, k=first)):
        return None
    return slice(first, first + m), g


class OperatorSolver:
    """The IMEX step inverse (I + dt A)^{-1} and the K, S maps of the sweeps.

    One :class:`SweepStep` per distinct dt is cached; ``solve_step`` and the
    sweeps read its P, so products with P round alike. Whether S and K are
    identity blocks is decided once, here, from the plant's arrays.
    """

    def __init__(self, a_matrix: np.ndarray, k_matrix: np.ndarray, s_matrix: np.ndarray):
        self._a = np.asarray(a_matrix, dtype=float)
        self._dim = self._a.shape[0]
        self._k = np.ascontiguousarray(k_matrix, dtype=float)
        self._k_block = _identity_block(self._k.T)
        s_matrix = np.ascontiguousarray(s_matrix, dtype=float)
        s_block = _identity_block(s_matrix)
        if s_block is not None and s_block[1] == 1.0:
            rows = s_block[0]

            def scatter_s(a, b):
                a[rows] += b
                return a

            self._s_maps = (itemgetter(rows), scatter_s)
        else:
            st = np.ascontiguousarray(s_matrix.T)
            self._s_maps = (s_matrix.__matmul__, lambda a, b: a + st @ b)
        self._steps: dict[float, SweepStep] = {}

    def _k_maps(self, dt: float) -> tuple[Callable, Callable]:
        """(x, phi) -> x - dt K phi and a -> dt K^T a."""
        if self._k_block is None:
            dtk = dt * self._k
            dtkt = np.ascontiguousarray(dtk.T)
            return (lambda x, phi: x - dtk @ phi), dtkt.__matmul__
        rows, g = self._k_block
        c = dt * g

        def scatter_k(x, phi):
            x = x.copy()
            x[rows] -= c * phi
            return x

        return scatter_k, lambda a: c * a[rows]

    def step(self, dt: float) -> SweepStep:
        """The step at ``dt``, built on first use."""
        key = float(dt)
        if key not in self._steps:
            eye = np.eye(self._dim)
            p = np.ascontiguousarray(sla.lu_solve(sla.lu_factor(eye + dt * self._a), eye))
            gather_s, scatter_s = self._s_maps
            scatter_k, gather_k = self._k_maps(key)
            self._steps[key] = SweepStep(key, p, np.ascontiguousarray(p.T),
                                         gather_s, scatter_k, gather_k, scatter_s)
        return self._steps[key]

    def solve_step(self, dt: float, b: np.ndarray) -> np.ndarray:
        return self.step(dt).p @ b


@dataclass
class Plant:
    """Semilinear plant dw/dt + A w + F(w) = B u, y = C w, F(w) = K sigma(S w).

    ``A`` (dim, dim), ``B`` (dim, dim_U) and ``C`` (dim_Z, dim) are float
    matrices (``plant.A @ w``), shape-checked once; the geometry of H, U and
    Z lives only in ``space_H``, ``space_U`` and ``space_Z``. The semilinear
    part is structured: ``K`` is (dim, m), ``S`` is (m, dim) and
    ``sigma``/``dsigma`` are an elementwise function on R^m and its
    derivative, with sigma(0) = 0. A linear plant passes none of them
    (m = 0). ``alpha_cert`` is the certified monotonicity margin of
    A + dF(.) in the H product, or None when the construction could not
    certify one. ``lip_F`` is a global Lipschitz bound of F, used for
    step-size guards and quadrature tail bounds. ``global_ok`` is True when
    the construction also certifies global attraction, which enables the
    battery's uniform-coercivity and global-attraction checks. ``solver``
    holds the step inverses, and is built from A.
    """

    name: str
    space_H: SpaceSpec
    space_U: SpaceSpec
    space_Z: SpaceSpec
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    solver: OperatorSolver = field(init=False)
    flat_at_origin: bool = field(init=False)
    alpha_cert: Optional[float]
    lip_F: float
    K: Optional[np.ndarray] = None
    S: Optional[np.ndarray] = None
    sigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dsigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    global_ok: bool = False

    def __post_init__(self):
        dim = self.space_H.dim
        for name, shape in (("A", (dim, dim)), ("B", (dim, self.space_U.dim)),
                            ("C", (self.space_Z.dim, dim))):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != shape:
                raise ValueError(f"{name} must be {shape}, got {mat.shape}")
            setattr(self, name, mat)
        if self.K is None:
            self.K, self.S = np.zeros((dim, 0)), np.zeros((0, dim))
            self.sigma = self.dsigma = np.zeros_like
        self.K = np.ascontiguousarray(self.K, dtype=float)
        self.S = np.ascontiguousarray(self.S, dtype=float)
        m = self.K.shape[1]
        if self.K.shape != (dim, m) or self.S.shape != (m, dim):
            raise ValueError(
                f"K must be ({dim}, m) and S (m, {dim}), got {self.K.shape} and {self.S.shape}"
            )
        if np.any(self.sigma(np.zeros(m)) != 0.0):
            raise ValueError("sigma(0) must be 0")
        self.flat_at_origin = not np.any(self.dsigma(np.zeros(m)))
        self.solver = OperatorSolver(self.A, self.K, self.S)

    @property
    def dim(self) -> int:
        return self.space_H.dim

    def F(self, w: np.ndarray) -> np.ndarray:
        """F at a state, or column by column at a (dim, s) block of states."""
        if not self.K.shape[1]:  # linear: skip three products with empty factors
            return np.zeros(np.shape(w))
        return self.K @ self.sigma(self.S @ w)

    def dF(self, w: np.ndarray) -> np.ndarray:
        """Dense Jacobian K diag(sigma'(S w)) S of F at w."""
        return self.K @ (self.dsigma(self.S @ w)[:, None] * self.S)

    def require_alpha(self) -> float:
        if self.alpha_cert is None:
            raise ValueError(
                f"plant {self.name!r} has no certified monotonicity margin"
            )
        return self.alpha_cert


@dataclass
class Trajectory:
    """States of a flow on a uniform grid; states[k] is the state at times[k]."""

    times: np.ndarray
    states: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def __len__(self) -> int:
        return len(self.times)


def _check_step_size(plant: Plant, dt: float) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if plant.lip_F > 0 and dt * plant.lip_F >= 1.0:
        raise ValueError(
            f"dt too large for the explicit part: dt * lip_F = {dt * plant.lip_F:.3g} >= 1"
        )


def trapezoid_weights(nq) -> np.ndarray:
    """Trapezoid weights, in units of the step, of the nodes 0..max(nq).

    An int ``nq`` gives the (nq + 1,) weights 0.5, 1, ..., 1, 0.5. An int
    array of s horizons gives (max(nq) + 1, s) weights whose column j is 0.5
    at node 0 and at its own end node nq_j, 1 between and 0 beyond, so each
    column integrates over its own horizon. A horizon of 0 nodes weighs 0.
    """
    nq = np.asarray(nq)
    if nq.ndim == 0:  # one state, every step of a single run: kept cheap
        n = int(nq)
        c = np.full(n + 1, 1.0 if n else 0.0)
        c[0] = c[n] = 0.5 * c[0]
        return c
    k = np.arange(int(nq.max(initial=0)) + 1)[:, None]
    return np.where((k == 0) | (k == nq), 0.5, 1.0) * (k <= nq) * (nq > 0)


def forward_sweep(
    step: SweepStep, x0: np.ndarray, phi_at: Callable, nq
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion x_{k+1} = P (x_k - dt K phi_k), phi_k = phi_at(k, S x_k).

    The one loop over flow and quadrature nodes, on the :class:`SweepStep`
    of :meth:`OperatorSolver.step`: each node takes one product with P, and
    gathers S x and scatters K phi through the step's maps. With phi = sigma
    it is the IMEX flow of F; with phi_k(y) = D_k y, D_k = sigma'(S w_k)
    along a base trajectory, it is the discrete tangent step
    T_k = P (I - dt K diag(D_k) S). Returns the states x_0..x_n and the
    trapezoid sum of phi_0..phi_n with step dt, so the quadrature of
    g_k = K phi_k is K times it. phi_at may get a view of x_k, and must not
    write into it.

    ``x0`` is a vector with the int horizon ``nq`` = n, or a (dim, s) block
    of s columns with an int array ``nq`` of their own horizons: the block
    sweeps to n = max(nq), and column j sums phi over its nodes 0..nq_j only
    (:func:`trapezoid_weights`). States are (n + 1,) + x0.shape and phi_at
    gets (m, s) blocks. Products of (dim, dim) with (dim, 1) are matrix-vector
    products, so a block of one column is bitwise the vector sweep.
    """
    wq = step.dt * trapezoid_weights(nq)
    n = len(wq) - 1
    # one state's weights as floats: a product with a float costs less per node
    wq = wq.tolist() if wq.ndim == 1 else wq
    p, gather_s, scatter_k = step.p, step.gather_s, step.scatter_k
    states = np.empty((n + 1,) + x0.shape)
    states[0] = x = x0
    phi = phi_at(0, gather_s(x))
    q = wq[0] * phi
    for k in range(1, n + 1):
        x = np.matmul(p, scatter_k(x, phi), out=states[k])
        phi = phi_at(k, gather_s(x))
        q += wq[k] * phi
    return states, q


def reverse_sweep(
    step: SweepStep, D: np.ndarray, psi: np.ndarray, lam: np.ndarray, nq
) -> np.ndarray:
    """Exact transpose of :func:`forward_sweep` with phi_k(y) = D_k y, in reverse.

    Each step applies T_k^T = P^T - dt S^T D_k K^T P^T on the same
    :class:`SweepStep` as the forward sweep: a = P^T r, then
    r = a + S^T D_k (c_k dt K^T psi - dt K^T a), one product with P^T per
    node. Returns the cotangents r_0..r_n of x_0..x_n for the output
    psi . K q + lam . x_n, so it equals x_0 . r_0 to roundoff, column by
    column. Callers pass psi and lam in Gram-multiplied coordinates; the rows
    are in the same coordinates.

    For one state, ``D`` holds the (n + 1, m) slopes, ``nq`` = n is an int,
    and ``psi`` and ``lam`` are vectors or (dim, c) blocks swept together.
    For a block of s states, ``D`` is (n + 1, m, s), ``nq`` the int array of
    the columns' horizons and ``psi``, ``lam`` are (dim, s), one cotangent
    per state; lam is the cotangent of the last node n. A column's sweep is 0
    past its own end node nq_j and takes its psi weight from there down.
    """
    c = trapezoid_weights(nq)
    n = len(c) - 1
    pt, gather_k, scatter_s = step.pt, step.gather_k, step.scatter_s
    d = D[..., None] if D.ndim == psi.ndim else D
    # c_k dt K^T psi at every node, c the trapezoid weights; one state's
    # inner nodes (c_k = 1) share kpsi instead of taking a row each
    kpsi = gather_k(psi)
    if c.ndim == 1:
        ckpsi = [kpsi] * (n + 1)
        ckpsi[0] = ckpsi[n] = c[0] * kpsi
    else:
        ckpsi = c[:, None, :] * kpsi
    rows = np.empty((n + 1,) + psi.shape)
    r = scatter_s(lam.copy(), d[n] * ckpsi[n])
    rows[n] = r
    for k in range(n - 1, -1, -1):
        a = pt @ r
        r = scatter_s(a, d[k] * (ckpsi[k] - gather_k(a)))
        rows[k] = r
    return rows


def flow(plant: Plant, w0: np.ndarray, T: float, dt: float) -> Trajectory:
    """Integrate the uncontrolled plant on [0, T] with fixed step dt.

    The horizon is rounded to a whole number of steps.
    """
    _check_step_size(plant, dt)
    n = max(int(round(T / dt)), 0)
    states, _ = forward_sweep(plant.solver.step(dt), np.asarray(w0, dtype=float),
                              lambda k, y: plant.sigma(y), n)
    return Trajectory(dt * np.arange(n + 1), states)


def tangent_flow(plant: Plant, base: Trajectory, h: np.ndarray) -> Trajectory:
    """First-variation flow dv/dt + A v + dF(w(t)) v = 0 along ``base``.

    Same IMEX scheme and grid as the base trajectory: the dF term is frozen
    at the stored base state of the step's left endpoint. Slopes are taken
    per node: a block as long as these flows would raise peak memory.
    """
    step = plant.solver.step(base.dt)
    gather_s, states = step.gather_s, base.states
    tangent, _ = forward_sweep(
        step, np.asarray(h, dtype=float),
        lambda k, y: plant.dsigma(gather_s(states[k])) * y, len(base) - 1,
    )
    return Trajectory(base.times.copy(), tangent)


def adjoint_tangent_flow(plant: Plant, base: Trajectory, zeta: np.ndarray) -> Trajectory:
    """Exact discrete adjoint of :func:`tangent_flow`, propagated in reverse.

    Each tangent step is T_k = (I + dt A)^{-1} (I - dt dF(w_k)); the adjoint
    trajectory applies the Gram-weighted T_k* backwards from ``zeta`` so that
    (tangent(h)[-1], zeta)_H == (h, adjoint(zeta)[0])_H to roundoff. States
    are indexed forward in time, states[-1] == zeta to roundoff.
    """
    gram = plant.space_H
    rows = reverse_sweep(
        plant.solver.step(base.dt), plant.dsigma(base.states @ plant.S.T),
        np.zeros(plant.dim), gram.apply_gram(np.asarray(zeta, dtype=float)),
        len(base) - 1,
    )
    return Trajectory(base.times.copy(), gram.solve_gram(rows.T).T)


def estimate_alpha(
    plant: Plant,
    n_samples: int = 50,
    radius: float = 1.0,
    seed: int = 0,
) -> float:
    """Empirical monotonicity margin over sampled state pairs.

    Draws pairs (w1, w2) from the Gram-weighted ball of the given radius and
    returns the worst normalized quotient
    (A(w1) - A(w2), w1 - w2)_H / ||w1 - w2||_H^2.
    """
    rng = np.random.default_rng(seed)
    space = plant.space_H
    worst = np.inf
    for _ in range(n_samples):
        w1 = space.sample_ball(rng, radius)
        w2 = space.sample_ball(rng, radius)
        d = w1 - w2
        nd2 = space.inner(d, d)
        if nd2 <= 1e-28:
            continue
        drift = (plant.A @ w1 + plant.F(w1)) - (plant.A @ w2 + plant.F(w2))
        q = space.inner(drift, d) / nd2
        worst = min(worst, q)
    return float(worst)


def contraction_check(
    plant: Plant, w1: np.ndarray, w2: np.ndarray, T: float, dt: float
) -> float:
    """Worst ratio ||T_t w1 - T_t w2||_H / (e^{-alpha t} ||w1 - w2||_H) on the grid.

    alpha is the plant certificate; contraction at that rate holds when the
    ratio stays at 1 up to the time-stepping bias.
    """
    alpha = plant.require_alpha()
    t1 = flow(plant, w1, T, dt)
    t2 = flow(plant, w2, T, dt)
    space = plant.space_H
    d0 = space.norm(np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float))
    if d0 == 0.0:
        return 0.0
    worst = 0.0
    for k in range(len(t1)):
        ratio = space.norm(t1.states[k] - t2.states[k]) / (
            np.exp(-alpha * t1.times[k]) * d0
        )
        worst = max(worst, ratio)
    return float(worst)
