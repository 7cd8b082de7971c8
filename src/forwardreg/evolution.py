"""Semilinear evolution: plants, IMEX stepping, tangent and adjoint flows.

The state equation is dw/dt + A w + F(w) = f with A linear monotone and F a
Lipschitz semilinear part vanishing at the origin, of the structured form
F(w) = K sigma(S w) with an elementwise sigma. Time stepping is IMEX Euler,
implicit in A and explicit in F, through one dense P = (I + dt A)^{-1} per dt:

    w' = P (w + dt (f - F(w))).

The tangent flow integrates the first variation along a stored base
trajectory with the same scheme. The quadrature's adjoint applies the exact
transpose of every discrete tangent step in reverse, so discrete duality
holds to roundoff rather than to O(dt). Along a base trajectory the
Jacobians are J_k = K diag(D_k) S with the slopes D_k = sigma'(S w_k).

These flows and the quadratures of the forwarding module all run on two
kernels, :func:`forward_sweep` and its exact transpose :func:`reverse_sweep`,
so this module alone fixes the discrete step and its transpose. The
quadrature rule is data, a table of weights per node that only
:func:`trapezoid_weights` builds from node counts: the forward sweep returns
the table it realized and the reverse sweep reads every weight from it, so
it is the transpose whatever the rule.
Both read a :class:`SweepStep`, built once per step size: P, a row-major
P^T, and the maps x -> S x, (x, phi) -> x - dt K phi and their transposes.
Each node takes exactly one product with P (forward) or P^T (reverse) and
builds no map. Where S is a contiguous block of identity rows (sine-Gordon's
[I 0], Wilson-Cowan's I), S x is a gather and S^T a scatter; where K is a
uniformly scaled block of identity columns (sine-Gordon's gamma [0; I]),
K phi is a scatter and K^T a gather. Any other S or K is a dense product.
Both kernels sweep a state vector or a (dim, s) block of s states, each
column to its own horizon, which the forward sweep may end early where the
column's state has decayed (``stop``), exactly: a block tests each column
with the vector's own x . x, bitwise. One state's (dim, r) block of
directions or cotangents sweeps as one, on its (n + 1, m) slopes; a block
of states takes (n + 1, m, s) slopes.

The products on the hot path (P and P^T in the sweeps, the dense S and K
maps, ``solve_step`` and ``Plant.F``; in the forwarding and regulator
modules, the evaluation's and the closed-loop step's) are ``ndarray.dot``
calls, not ``@``: the same BLAS call, and so the same bits, at about half
the matmul ufunc's dispatch cost at these sizes (dim 32-120; 0.62 against
1.16 us at dim 32 on a 2-vCPU x86_64 host with OpenBLAS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .spaces import SpaceSpec

__all__ = [
    "Plant",
    "OperatorSolver",
    "SweepStep",
    "trapezoid_weights",
    "horizons",
    "forward_sweep",
    "reverse_sweep",
    "flow",
    "tangent_flow",
    "adjoint_tangent_flow",
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
                sub = a[rows]  # a view: += adds in place, with no get-add-set
                sub += b
                return a

            self._s_maps = (itemgetter(rows), scatter_s)
        else:
            st = np.ascontiguousarray(s_matrix.T)
            self._s_maps = (s_matrix.dot, lambda a, b: a + st.dot(b))
        self._steps: dict[float, SweepStep] = {}

    def _k_maps(self, dt: float) -> tuple[Callable, Callable]:
        """(x, phi) -> x - dt K phi and a -> dt K^T a."""
        if self._k_block is None:
            dtk = dt * self._k
            dtkt = np.ascontiguousarray(dtk.T)
            return (lambda x, phi: x - dtk.dot(phi)), dtkt.dot
        rows, g = self._k_block
        c = dt * g

        def scatter_k(x, phi):
            x = x.copy()
            sub = x[rows]
            sub -= c * phi
            return x

        return scatter_k, lambda a: c * a[rows]

    def step(self, dt: float) -> SweepStep:
        """The step at ``dt``, built on first use."""
        key = float(dt)
        if key not in self._steps:
            eye = np.eye(self._dim)
            p = np.ascontiguousarray(np.linalg.solve(eye + dt * self._a, eye))
            gather_s, scatter_s = self._s_maps
            scatter_k, gather_k = self._k_maps(key)
            self._steps[key] = SweepStep(key, p, np.ascontiguousarray(p.T),
                                         gather_s, scatter_k, gather_k, scatter_s)
        return self._steps[key]

    def solve_step(self, dt: float, b: np.ndarray) -> np.ndarray:
        return self.step(dt).p.dot(b)


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
    step-size guards and quadrature tail bounds. ``lip_dsigma`` is a global
    Lipschitz bound of sigma', or None when the construction certifies
    none; with sigma'(0) = 0 it bounds ||dF(x)|| by a multiple of ||x||, so
    the quadrature may stop where the flow has decayed. ``global_ok`` is True when
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
    lip_dsigma: Optional[float] = None
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
        if self.lip_dsigma is not None and not (
                math.isfinite(self.lip_dsigma) and self.lip_dsigma >= 0):
            raise ValueError(f"lip_dsigma must be finite and non-negative, got {self.lip_dsigma}")
        self.solver = OperatorSolver(self.A, self.K, self.S)

    @property
    def dim(self) -> int:
        return self.space_H.dim

    def F(self, w: np.ndarray) -> np.ndarray:
        """F at a state, or column by column at a (dim, s) block of states."""
        if not self.K.shape[1]:  # linear: skip three products with empty factors
            return np.zeros(np.shape(w))
        return self.K.dot(self.sigma(self.S.dot(w)))

    def dF(self, w: np.ndarray) -> np.ndarray:
        """Dense Jacobian K diag(sigma'(S w)) S of F at w."""
        return self.K @ (self.dsigma(self.S @ w)[:, None] * self.S)

    def require_alpha(self) -> float:
        if self.alpha_cert is None:
            raise ValueError(
                f"plant {self.name!r} has no certified monotonicity margin"
            )
        return self.alpha_cert


def _check_step_size(plant: Plant, dt: float) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if plant.lip_F > 0 and dt * plant.lip_F >= 1.0:
        raise ValueError(
            f"dt too large for the explicit part: dt * lip_F = {dt * plant.lip_F:.3g} >= 1"
        )


# nodes a block sweep steps before its first stop test, and between tests
# where its columns show no decay
_STOP_EVERY = 8
_END_WEIGHT = 0.5  # the weight, in units of the step, of the node where the stop ends a column


def trapezoid_weights(nq) -> np.ndarray:
    """Trapezoid weights, in units of the step, of the nodes 0..max(nq).

    An int ``nq`` gives the (nq + 1,) weights 0.5, 1, ..., 1, 0.5. An int
    array of s horizons gives (max(nq) + 1, s) weights whose column j is 0.5
    at node 0 and at its own end node nq_j, 1 between and 0 beyond, so each
    column integrates over its own horizon. A horizon of 0 nodes weighs 0.
    """
    nq = np.asarray(nq)
    if nq.ndim == 0:  # one state, every step of a single run: kept cheap
        c = np.full(int(nq) + 1, 1.0 if nq else 0.0)
        c[0] = c[-1] = 0.5 * c[0]
        return c
    k = np.arange(int(nq.max(initial=0)) + 1)[:, None]
    return np.where((k == 0) | (k == nq), 0.5, 1.0) * (k <= nq) * (nq > 0)


def horizons(c: np.ndarray) -> np.ndarray:
    """Each column's last node of nonzero weight in an (n + 1, s) table, 0 where it has none."""
    return np.where(c.any(axis=0), len(c) - 1 - (c[::-1] != 0).argmax(axis=0), 0)


def forward_sweep(
    step: SweepStep, x0: np.ndarray, phi_at: Callable, c: np.ndarray, stop: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward recursion x_{k+1} = P (x_k - dt K phi_k), phi_k = phi_at(k, S x_k).

    The one loop over flow and quadrature nodes, on the :class:`SweepStep`
    of :meth:`OperatorSolver.step`: each node takes one product with P, and
    gathers S x and scatters K phi through the step's maps. With phi = sigma
    it is the IMEX flow of F; with phi_k(y) = D_k y, D_k = sigma'(S w_k)
    along a base trajectory, it is the discrete tangent step
    T_k = P (I - dt K diag(D_k) S). ``c`` is the quadrature rule as data:
    the weights of nodes 0..n in units of the step. Returns the states
    x_0..x_n, the sum of dt c_k phi_k (K times it is the quadrature of
    g_k = K phi_k) and the table realized, which :func:`reverse_sweep`
    takes. phi_at may get a view of x_k, and must not write into it.

    ``x0`` is a vector or a (dim, r) block of directions with an (n + 1,)
    table, or a (dim, s) block of states with an (n + 1, s) table, column j
    to its own horizon (:func:`horizons`). States are (n + 1,) + x0.shape;
    phi_at gets (m, r) or (m, s) blocks. A block of one column is bitwise
    the vector sweep, as (dim, dim) times (dim, 1) is a matrix-vector product.

    ``stop``, for a state vector or a block of states, ends each column
    early at its first node k >= 1 before its horizon with ||x_k||_2 <= stop:
    in the table returned, that node weighs ``_END_WEIGHT`` and those beyond
    0. A vector tests every node with x . x; a block, the states stepped
    since its last test, with one vecdot over a contiguous copy, a row per
    column, so that each squared norm is the vector's own x . x, bitwise. A
    block tests at node ``_STOP_EVERY``, then where its live columns' decay
    predicts their ends (:func:`_screen_gap`): phi_at may be called for a
    few nodes past its last end, whose rows are not returned.
    """
    n = last = len(c) - 1
    p, gather_s, scatter_k = step.p, step.gather_s, step.scatter_k
    thr2 = None if stop is None else stop * stop
    states = np.empty((n + 1,) + x0.shape)
    states[0] = x = x0
    phi = phi_at(0, gather_s(x))
    if c.ndim == 1:
        # one state's weights as floats: a product with a float costs less per node
        wq = (step.dt * c).tolist()
        q = wq[0] * phi
        for k in range(1, n + 1):
            x = p.dot(scatter_k(x, phi), out=states[k])
            phi = phi_at(k, gather_s(x))
            if thr2 is not None and x.dot(x) <= thr2:
                q += step.dt * _END_WEIGHT * phi
                return states[:k + 1], q, np.concatenate((c[:k], [_END_WEIGHT]))
            q += wq[k] * phi
        return states, q, c
    # a block adds each node's phi once its chunk's stop test has fixed its
    # weight in the sweep's copy of the table, as a column's vector sweep would
    c, ends, check = c.copy(), horizons(c), min(_STOP_EVERY, n)
    q = step.dt * c[0] * phi
    pending = []
    for k in range(1, n + 1):
        x = p.dot(scatter_k(x, phi), out=states[k])
        phi = phi_at(k, gather_s(x))
        pending.append(phi)
        if k < check:
            continue
        first = k + 1 - len(pending)
        if thr2 is not None:
            # each column's states as contiguous rows: a row's squared norm is
            # the vector's own x . x, bitwise
            seg = np.ascontiguousarray(states[first:k + 1].transpose(2, 0, 1))
            sq = np.vecdot(seg, seg)
            hit = (sq <= thr2) & (np.arange(first, k + 1) < ends[:, None])
            for j in np.flatnonzero(hit.any(axis=1)):
                ends[j] = e = first + hit[j].argmax()
                c[e, j], c[e + 1:, j] = _END_WEIGHT, 0.0
            last = ends.max()
        for wk, phk in zip(step.dt * c[first:last + 1], pending):
            q += wk * phk
        pending.clear()
        if k >= last:
            break
        check = min(k + (_STOP_EVERY if thr2 is None else _screen_gap(sq, ends > k, thr2)), n)
    return states[:last + 1], q, c[:last + 1]


def _screen_gap(sq: np.ndarray, live: np.ndarray, thr2: float) -> int:
    """Nodes to the next stop test of a block sweep: where the slowest
    ``live`` column reaches thr2 at the geometric rate its squared norms
    ``sq`` (a row per column) fell over the chunk just tested, or
    ``_STOP_EVERY`` where a column's did not fall. It never sets an end."""
    gap, m = 1, sq.shape[1] - 1
    for a, b, on in zip(sq[:, 0].tolist(), sq[:, -1].tolist(), live.tolist()):
        if not on:
            continue
        if not (m and a > b > thr2 > 0):
            return _STOP_EVERY
        ahead = m * (math.log(b) - math.log(thr2)) / (math.log(a) - math.log(b))
        gap = max(gap, math.ceil(ahead))
    return gap


def reverse_sweep(step: SweepStep, D: np.ndarray, psi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact transpose of :func:`forward_sweep` with phi_k(y) = D_k y, in reverse.

    Each step applies T_k^T = P^T - dt S^T D_k K^T P^T on the same
    :class:`SweepStep` as the forward sweep: a = P^T r, then
    r = a + S^T D_k (c_k dt K^T psi - dt K^T a), one product with P^T per
    node, c_k read from the table ``c`` the forward sweep realized, whatever
    its rule. Returns r_0 alone, the cotangent of x_0 for the output
    psi . K q: psi . K q equals x_0 . r_0 to roundoff, column by column.
    psi, and so r_0, are in Gram-multiplied coordinates.

    ``D`` holds one state's (n + 1, m) slopes, with an (n + 1,) ``c`` and a
    vector or a (dim, r) block ``psi`` swept together; or a block of s
    states' (n + 1, m, s) slopes, with an (n + 1, s) ``c`` and a (dim, s)
    ``psi``, one cotangent per state, each column 0 past its horizon.
    """
    n = len(c) - 1
    pt, gather_k, scatter_s = step.pt, step.gather_k, step.scatter_s
    d = D[..., None] if D.ndim == psi.ndim else D
    kpsi = gather_k(psi)  # node k's output term is d_k c_k dt K^T psi
    # a run of equal rows (the trapezoid rule's inner nodes) shares its product
    new = (c[:-1] != c[1:]).reshape(n, c[0].size).any(axis=1).tolist()
    ckpsi = c[n] * kpsi
    r = scatter_s(np.zeros_like(psi), d[n] * ckpsi)
    for k in range(n - 1, -1, -1):
        a = pt.dot(r)
        if new[k]:  # row k differs from row k + 1
            ckpsi = c[k] * kpsi
        r = scatter_s(a, d[k] * (ckpsi - gather_k(a)))
    return r


def flow(plant: Plant, w0: np.ndarray, T: float, dt: float) -> np.ndarray:
    """Integrate the uncontrolled plant on [0, T] with fixed step dt.

    The horizon is rounded to a whole number n of steps. Returns the
    (n + 1, dim) states; row k is the state at time dt * k.
    """
    _check_step_size(plant, dt)
    n = max(int(round(T / dt)), 0)
    states, _, _ = forward_sweep(plant.solver.step(dt), np.asarray(w0, dtype=float),
                                 lambda k, y: plant.sigma(y), trapezoid_weights(n))
    return states


def tangent_flow(plant: Plant, base: np.ndarray, dt: float, h: np.ndarray) -> np.ndarray:
    """First-variation flow dv/dt + A v + dF(w(t)) v = 0 along ``base``.

    ``base`` holds the states of a :func:`flow` at step ``dt``; the tangent
    states share its grid. The dF term is frozen at the stored base state of
    the step's left endpoint. ``h`` is a direction or a (dim, c) block of
    them; an (n + 1, dim, s) ``base`` of s runs takes one per run, (dim, s).
    Slopes are taken per node: a block as long as these flows would raise
    peak memory.
    """
    step = plant.solver.step(dt)
    gather_s, h = step.gather_s, np.asarray(h, dtype=float)
    col = (..., None) if base.ndim == h.ndim else ...  # one run's slopes on every column
    tangent, _, _ = forward_sweep(step, h, lambda k, y: plant.dsigma(gather_s(base[k]))[col] * y,
                                  trapezoid_weights(len(base) - 1))
    return tangent


def adjoint_tangent_flow(plant: Plant, base: np.ndarray, dt: float, zeta: np.ndarray) -> np.ndarray:
    """Exact discrete adjoint of :func:`tangent_flow` at time 0, a dense reference.

    Returns the r with (tangent_flow(h)[-1], zeta)_H == (h, r)_H for every
    h, to roundoff: r = G_H^{-1} Phi^T G_H zeta, where Phi is the tangent
    flow's end map, the flow of the identity block on the forward kernel.
    """
    space = plant.space_H
    phi = tangent_flow(plant, base, dt, np.eye(plant.dim))[-1]
    return space.solve_gram(phi.T @ (space.gram @ np.asarray(zeta, dtype=float)))
