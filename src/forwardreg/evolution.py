"""Semilinear evolution: plants, IMEX stepping, tangent and adjoint flows.

The state equation is dw/dt + A w + F(w) = f with A linear monotone and F a
Lipschitz semilinear part vanishing at the origin. Time stepping is IMEX
Euler, implicit in A and explicit in F:

    (I + dt A) w' = w + dt (f - F(w)).

The tangent flow integrates the first variation along a stored base
trajectory with the same scheme, and the adjoint flow propagates the exact
Gram-weighted adjoint of every discrete tangent step in reverse, so discrete
duality holds to roundoff rather than to O(dt).

These flows and the quadratures of the forwarding module all run on two
kernels, :func:`forward_sweep` and its exact transpose :func:`reverse_sweep`,
so this module alone fixes the discrete step, trapezoid weights and transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla

from .spaces import LinMap, SpaceSpec

__all__ = [
    "Plant",
    "Trajectory",
    "OperatorSolver",
    "apply_nonlinear_A",
    "forward_sweep",
    "reverse_sweep",
    "flow",
    "tangent_flow",
    "adjoint_tangent_flow",
    "estimate_alpha",
    "contraction_check",
]


class OperatorSolver:
    """LU-backed solves for A and the IMEX step matrices (I + dt A).

    One factorization per distinct dt is cached. ``solve_step`` serves the
    closed-loop step and sample smoothing; ``dense_step_inverse`` materializes
    (I + dt A)^{-1} and its transpose for the flow, tangent and adjoint sweeps
    of :func:`forward_sweep` and :func:`reverse_sweep`.
    """

    def __init__(self, a_matrix: np.ndarray):
        self._a = np.asarray(a_matrix, dtype=float)
        self._dim = self._a.shape[0]
        self._lu_a = sla.lu_factor(self._a)
        self._step_lu: dict[float, tuple] = {}
        self._step_inv: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def solve_a(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        return sla.lu_solve(self._lu_a, b, trans=1 if transpose else 0)

    def _step_factor(self, dt: float):
        key = float(dt)
        if key not in self._step_lu:
            self._step_lu[key] = sla.lu_factor(np.eye(self._dim) + dt * self._a)
        return self._step_lu[key]

    def solve_step(self, dt: float, b: np.ndarray) -> np.ndarray:
        return sla.lu_solve(self._step_factor(dt), b)

    def dense_step_inverse(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Return (P, P.T contiguous) with P = (I + dt A)^{-1}."""
        key = float(dt)
        if key not in self._step_inv:
            p = sla.lu_solve(self._step_factor(dt), np.eye(self._dim))
            self._step_inv[key] = (np.ascontiguousarray(p), np.ascontiguousarray(p.T))
        return self._step_inv[key]


@dataclass
class Plant:
    """Semilinear plant dw/dt + A w + F(w) = B u, y = C w.

    ``dF`` maps a state to the Jacobian of F there, as a LinMap on H whose
    ``rmatvec`` is the plain transpose (Gram weighting is applied by callers
    where adjoints are needed). ``alpha_cert`` is the certified monotonicity
    margin of A + dF(.) in the H product, or None when the construction could
    not certify one. ``lip_F`` is a global Lipschitz bound of F, used for
    step-size guards and quadrature tail bounds. ``solver`` holds the
    factorizations of A and is built from it.
    """

    name: str
    space_H: SpaceSpec
    space_U: SpaceSpec
    space_Z: SpaceSpec
    A: LinMap
    F: Callable[[np.ndarray], np.ndarray]
    dF: Callable[[np.ndarray], LinMap]
    B: LinMap
    C: LinMap
    solver: OperatorSolver = field(init=False)
    alpha_cert: Optional[float]
    lip_F: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.solver = OperatorSolver(self.A.as_matrix())

    @property
    def dim(self) -> int:
        return self.space_H.dim

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

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.times)


def apply_nonlinear_A(plant: Plant, w: np.ndarray) -> np.ndarray:
    """Full drift A w + F(w)."""
    return plant.A(w) + plant.F(w)


def _check_step_size(plant: Plant, dt: float) -> None:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if plant.lip_F > 0 and dt * plant.lip_F >= 1.0:
        raise ValueError(
            f"dt too large for the explicit part: dt * lip_F = {dt * plant.lip_F:.3g} >= 1"
        )


def forward_sweep(
    p: np.ndarray, dt: float, x0: np.ndarray, g_at: Callable, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion x_{k+1} = P (x_k - dt g_k), g_k = g_at(k, x_k).

    The one loop over flow and quadrature nodes: with P = (I + dt A)^{-1}
    and g the semilinear part F it is the IMEX flow; with g_k = J_k v it is
    the discrete tangent step T_k = P (I - dt J_k). Returns the states
    x_0..x_n and the trapezoid sum q of g_0..g_n with step dt.
    """
    states = np.empty((n + 1, x0.shape[0]))
    states[0] = x0
    q = np.zeros(x0.shape[0])
    x = x0
    for k in range(n):
        g = g_at(k, x)
        q += (0.5 * dt if k == 0 else dt) * g
        x = p @ (x - dt * g)
        states[k + 1] = x
    q += 0.5 * dt * g_at(n, x)
    return states, q


def reverse_sweep(
    pt: np.ndarray, dt: float, jac_at: Callable, psi: np.ndarray, lam: np.ndarray, n: int
) -> np.ndarray:
    """Exact transpose of :func:`forward_sweep` with g_k = J_k x_k, in reverse.

    ``pt`` is P^T and ``jac_at(k).rmatvec`` applies J_k^T. Returns the
    cotangents r_0..r_n of x_0..x_n for the output psi . q + lam . x_n, so
    psi . q + lam . x_n == x_0 . r_0 to roundoff. Callers pass psi and lam
    in Gram-multiplied coordinates; the rows are in the same coordinates.
    """
    rows = np.empty((n + 1, psi.shape[0]))
    r = lam + jac_at(n).rmatvec(0.5 * dt * psi)
    rows[n] = r
    for k in range(n - 1, -1, -1):
        y = pt @ r
        r = y + jac_at(k).rmatvec((0.5 * dt if k == 0 else dt) * psi - dt * y)
        rows[k] = r
    return rows


def flow(plant: Plant, w0: np.ndarray, T: float, dt: float) -> Trajectory:
    """Integrate the uncontrolled plant on [0, T] with fixed step dt.

    The horizon is rounded to a whole number of steps.
    """
    _check_step_size(plant, dt)
    n = max(int(round(T / dt)), 0)
    p, _ = plant.solver.dense_step_inverse(dt)
    states, _ = forward_sweep(
        p, dt, np.asarray(w0, dtype=float), lambda k, w: plant.F(w), n
    )
    return Trajectory(dt * np.arange(n + 1), states)


def tangent_flow(plant: Plant, base: Trajectory, h: np.ndarray) -> Trajectory:
    """First-variation flow dv/dt + A v + dF(w(t)) v = 0 along ``base``.

    Same IMEX scheme and grid as the base trajectory: the dF term is frozen
    at the stored base state of the step's left endpoint.
    """
    p, _ = plant.solver.dense_step_inverse(base.dt)
    states, _ = forward_sweep(
        p, base.dt, np.asarray(h, dtype=float),
        lambda k, v: plant.dF(base.states[k])(v), len(base) - 1,
    )
    return Trajectory(base.times.copy(), states)


def adjoint_tangent_flow(plant: Plant, base: Trajectory, zeta: np.ndarray) -> Trajectory:
    """Exact discrete adjoint of :func:`tangent_flow`, propagated in reverse.

    Each tangent step is T_k = (I + dt A)^{-1} (I - dt dF(w_k)); the adjoint
    trajectory applies the Gram-weighted T_k* backwards from ``zeta`` so that
    (tangent(h)[-1], zeta)_H == (h, adjoint(zeta)[0])_H to roundoff. States
    are indexed forward in time, states[-1] == zeta to roundoff.
    """
    gram = plant.space_H
    _, pt = plant.solver.dense_step_inverse(base.dt)
    rows = reverse_sweep(
        pt, base.dt, lambda k: plant.dF(base.states[k]), np.zeros(plant.dim),
        gram.apply_gram(np.asarray(zeta, dtype=float)), len(base) - 1,
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
        q = space.inner(apply_nonlinear_A(plant, w1) - apply_nonlinear_A(plant, w2), d) / nd2
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
