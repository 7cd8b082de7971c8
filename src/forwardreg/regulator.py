"""Closed-loop synthesis: integral action, forwarding feedback, simulation.

The loop augments the plant with an output integrator dz/dt = C w - y_ref
and applies u = B* dM(w)* (z - M(w)). States advance by the plant's IMEX
step with forcing B u + d; z advances by explicit Euler with the current
output, which keeps the step matrices identical to the open loop. The
eta = z - M(w) block is stiff, with eigenvalues up to ``fmap.loop_gain``: the
explicit z-step needs dt * loop_gain < 2, and the battery caps the step of
its closed loops at 0.5 / loop_gain. The candidate Lyapunov function is

    V(w, z) = 1/2 ||w||_H^2 + (rho/2) ||z - M(w)||_Z^2.

Equilibria are located by budgeted simulation with stagnation detection and
tail averaging; at any discrete fixed point the z-update forces C w = y_ref
exactly, so the located equilibrium is a true regulation point up to the
stagnation tolerance. Several searches (a sweep's cells) step in lockstep as
the columns of one block, each with its own disturbance, reference,
stagnation rule and tail; several runs (the battery's) do the same, each
with its own initial state, step size dt and horizon.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain, count, islice
from typing import Optional

import numpy as np

from .evolution import Plant
from .forwarding import ForwardingMap, StateEvaluation

__all__ = [
    "Scenario",
    "RunResult",
    "RegulationReport",
    "EquilibriumResult",
    "feedback",
    "simulate",
    "simulate_lockstep",
    "find_equilibrium",
    "find_equilibrium_recorded",
    "convergence_report",
]

# stagnation rule of find_equilibrium: every _CHECK_EVERY steps, stop once
# the mean drift speed is at most _STAG_TOL; then average the last
# _TAIL_STEPS states
_STAG_TOL = 1e-10
_CHECK_EVERY = 50
_TAIL_STEPS = 20
# convergence_report calls a run Lyapunov-monotone when no step raises V by
# more than this
_JUMP_TOL = 0.0
# simulate stops a run once the H-norm of its state passes this
_DIVERGENCE_GUARD = 1e6


@dataclass
class Scenario:
    """Constant-disturbance regulation scenario on [0, T].

    ``d`` is the constant disturbance in H (None means zero), ``y_ref`` the
    constant reference in Z. ``w0``/``z0`` default to the origin.
    """

    y_ref: np.ndarray
    T: float
    dt: float
    d: Optional[np.ndarray] = None
    w0: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("T", "dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(
                    f"scenario {name} must be finite and positive, got {value}"
                )
        self.y_ref = np.atleast_1d(np.asarray(self.y_ref, dtype=float))


@dataclass
class RunResult:
    """Closed-loop trajectory with per-step diagnostics.

    ``m`` stores M(w_k) so that eta = z - m comes free after the run;
    ``v`` is the Lyapunov value per step. A diverged run is truncated at the
    step where the state norm blew past the guard.
    """

    times: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y: np.ndarray
    u: np.ndarray
    m: np.ndarray
    v: np.ndarray
    diverged: bool
    scenario: Scenario

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RegulationReport:
    """Empirical convergence metrics of one closed-loop run.

    ``deviation[k]`` is ||[w_k - w*, eta_k - eta*]||_rho at the k-th sample.
    """

    final_output_error: float
    averaged_output_error: float
    fitted_rate: Optional[float]
    lyapunov_monotone: bool
    max_lyapunov_jump: float
    deviation: np.ndarray


@dataclass
class EquilibriumResult:
    converged: bool
    t_reached: float
    drift_residual: float
    output_residual: float
    iterations: int


def _require_feasible(fmap: ForwardingMap) -> None:
    if not fmap.feasible:
        raise ValueError(
            "forwarding map is infeasible (range condition or contraction "
            "certificate missing); closed-loop synthesis undefined"
        )


def feedback(fmap: ForwardingMap, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Control u = B* dM(w)* (z - M(w))."""
    _require_feasible(fmap)
    ev = StateEvaluation(fmap, w)
    return ev.dM_adjoint_B(z - ev.M())


def _start(plant: Plant, fmap: ForwardingMap, scenarios: list):
    """(w0, z0, d, y_ref, ns): where every closed loop begins.

    Checks that ``fmap`` is feasible and was built for ``plant``, and each
    scenario's w0, z0, d and y_ref against (dim,), (dim_Z,), (dim,) and
    (dim_Z,); a field of None is zeros, so the loop always adds a
    disturbance. Returns the fields stacked as columns, column j that of
    ``scenarios[j]``, and the step count of each scenario.
    """
    if plant is not fmap.plant:
        raise ValueError("fmap was built for a different plant")
    _require_feasible(fmap)
    dims = {"w0": plant.dim, "z0": plant.space_Z.dim, "d": plant.dim,
            "y_ref": plant.space_Z.dim}
    columns = {name: [] for name in dims}
    for sc in scenarios:
        for name, dim in dims.items():
            value = getattr(sc, name)
            value = np.zeros(dim) if value is None else np.asarray(value, dtype=float)
            if value.shape != (dim,):
                raise ValueError(f"{name} must have shape {(dim,)}, got {value.shape}")
            columns[name].append(value)
    ns = [max(int(round(sc.T / sc.dt)), 1) for sc in scenarios]
    return (*(np.column_stack(c) for c in columns.values()), ns)


def _closed_loop(plant, fmap, w, z, d, y_ref, dt):
    """Yield (w, z, m, u, y) at each closed-loop state, then step once.

    m = M(w), u = B* dM(w)* (z - m) and y = C w belong to the yielded state;
    resuming advances w by the IMEX step with forcing B u + d and z by
    explicit Euler. Endless: drivers take as many states as they need.

    ``w`` (dim,) and ``z`` (dim_Z,) step one run. (dim, s) and (dim_Z, s)
    blocks step s runs in lockstep, column j with the disturbance d[:, j]
    and the reference y_ref[:, j]. ``dt`` is a float, or an (s,) array that
    gives column j its own step dt[j]; each distinct dt's P then acts on its
    own columns. A caller may ``send`` the indices of the columns to keep;
    the others leave the block, with their dt, before the step. A block that
    is down to one column is stepped, and yielded, as the vector run: that is
    cheaper, and bitwise the same.
    """
    column = False
    while True:
        if not column and w.ndim == 2 and w.shape[1] == 1:
            column = True
            w, z, d, y_ref = (a[:, 0] for a in (w, z, d, y_ref))
            dt = float(np.ravel(dt)[0])
        ev = StateEvaluation(fmap, w)
        m = ev.M()
        u = ev.dM_adjoint_B(z - m)
        y = plant.C.dot(w)
        keep = yield w, z, m, u, y
        if keep is not None and not column:
            w, z, u, y, d, y_ref = (a[:, keep] for a in (w, z, u, y, d, y_ref))
            if isinstance(dt, np.ndarray):
                dt = dt[keep]
        w = _solve_step(plant, dt, w - dt * plant.F(w) + dt * (plant.B.dot(u) + d))
        z = z + dt * (y - y_ref)


def _solve_step(plant, dt, rhs):
    """(I + dt A)^{-1} rhs for a scalar ``dt``, or per column for an (s,) array."""
    if not isinstance(dt, np.ndarray):
        return plant.solver.solve_step(dt, rhs)
    out = np.empty_like(rhs)
    for step in np.unique(dt):
        cols = np.flatnonzero(dt == step)
        out[:, cols] = plant.solver.solve_step(float(step), rhs[:, cols])
    return out


def _record(fmap: ForwardingMap, states, scenarios: list, ns: list) -> list:
    """The recording loop: run j over its states 0..ns[j], with V at each.

    ``states`` yields (dim, s) and (dim_Z, s) blocks, column j the run of
    ``scenarios[j]``, or vectors while one run is left. A run leaves the
    block at its state ns[j], or at the first state whose V is not finite or
    whose H-norm passes the divergence guard; the others run on, and
    ``states`` is sent the columns that stay. Returns one RunResult per
    scenario, up to the state where it left.
    """
    space_h, space_z = fmap.plant.space_H, fmap.plant.space_Z
    state = next(states)
    # per run: w, z, m, u and y (the order of the yielded state), then V
    hist = [[np.empty((n + 1, a.shape[0])) for a in state] + [np.empty(n + 1)]
            for n in ns]
    ends = list(ns)
    diverged = [False] * len(ns)
    live = list(range(len(ns)))
    for k in count():
        keep = []
        columns = (state,) if state[0].ndim == 1 else zip(*(a.T for a in state))
        for p, (j, (w, z, m, u, y)) in enumerate(zip(live, columns)):
            w_h, z_h, m_h, u_h, y_h, v_h = hist[j]
            w_h[k], z_h[k], m_h[k], u_h[k], y_h[k] = w, z, m, u, y
            # V, and the H-norm for the guard, from one Gram product of w
            ww, eta = space_h.inner(w, w), z - m
            v_h[k] = v = 0.5 * ww + 0.5 * fmap.rho * space_z.inner(eta, eta)
            if not math.isfinite(v) or math.sqrt(max(ww, 0.0)) > _DIVERGENCE_GUARD:
                diverged[j], ends[j] = True, k
            elif k < ns[j]:
                keep.append(p)
        if len(keep) == len(live):
            state = next(states)
        elif keep:
            state = states.send(keep)
            live = [live[p] for p in keep]
        else:
            break
    out = []
    for sc, (w, z, m, u, y, v), end, div in zip(scenarios, hist, ends, diverged):
        end += 1
        out.append(RunResult(times=sc.dt * np.arange(end), w=w[:end], z=z[:end],
                             y=y[:end], u=u[:end], m=m[:end], v=v[:end],
                             diverged=div, scenario=sc))
    return out


def _search(plant, fmap, states, d, y_ref, dt, n, rows=None):
    """The stagnation rule over states 1..n of runs from the origin, per column.

    ``states`` yields the states from state 1 on: (dim, s) and (dim_Z, s)
    blocks of s runs from :func:`_closed_loop`, or vectors while one run is
    left; it is sent the columns that stay whenever one leaves. Every 50
    states, and at state n, each column is checked. A column leaves once its
    mean drift speed is at most 1e-10 (converged; every 50 states only),
    when its state norm is not finite, or at state n. Returns one entry per
    column: (w*, z*, result), with the mean of the column's last 20 states
    and its residuals, or, for a column whose state stopped being finite,
    the FloatingPointError naming the step.
    Memory is each column's 20-state tail, whatever the budget; ``rows``,
    when given, are (s, c + 1, .) arrays that get w, z, m, u and y of each
    column's states 1..min(k, c) while it stays.
    """
    space_h, space_z = plant.space_H, plant.space_Z
    dim, dim_z = plant.dim, space_z.dim
    live = np.arange(y_ref.shape[1])
    found = [None] * len(live)
    tail_w = deque(maxlen=_TAIL_STEPS)
    tail_z = deque(maxlen=_TAIL_STEPS)
    w_mark, z_mark = np.zeros((dim, len(live))), np.zeros((dim_z, len(live)))
    state = next(states)
    for k in range(1, n + 1):
        if rows is not None and k < rows[0].shape[1]:
            for r, a in zip(rows, state):
                r[live, k] = a.T
        tail_w.append(state[0])
        tail_z.append(state[1])
        if k % _CHECK_EVERY and k < n:
            state = next(states)
            continue
        w, z = state[0].reshape(dim, -1), state[1].reshape(dim_z, -1)
        check = k % _CHECK_EVERY == 0
        # gone[p]: True (converged), the error, or False (budget used up)
        gone = {}
        for p in range(len(live)):
            if check and (space_h.norm(w[:, p] - w_mark[:, p]) + space_z.norm(
                    z[:, p] - z_mark[:, p])) / (_CHECK_EVERY * dt) <= _STAG_TOL:
                gone[p] = True
            elif not np.isfinite(space_h.norm(w[:, p])):
                gone[p] = FloatingPointError(
                    f"equilibrium search diverged: the state is not finite at "
                    f"step {k} (t = {k * dt:.6g})"
                )
            elif k == n:
                gone[p] = False
        if check:
            w_mark, z_mark = w, z
        for p, how in gone.items():
            j = live[p]
            found[j] = how if isinstance(how, Exception) else _equilibrium(
                plant, fmap, np.mean([t.reshape(dim, -1)[:, p] for t in tail_w], axis=0),
                np.mean([t.reshape(dim_z, -1)[:, p] for t in tail_z], axis=0),
                d[:, j], y_ref[:, j], how, k, dt)
        if len(gone) == len(live):
            break
        if gone:
            keep = [p for p in range(len(live)) if p not in gone]
            live, w_mark, z_mark = live[keep], w_mark[:, keep], z_mark[:, keep]
            tail_w = deque((t[:, keep] for t in tail_w), maxlen=_TAIL_STEPS)
            tail_z = deque((t[:, keep] for t in tail_z), maxlen=_TAIL_STEPS)
            state = states.send(keep)
        else:
            state = next(states)
    return found


def _equilibrium(plant, fmap, w_star, z_star, d, y_ref, converged, k, dt):
    """(w*, z*, result) of a search that stopped at step k at the tail mean."""
    u_star = feedback(fmap, w_star, z_star)
    drift = -(plant.A @ w_star + plant.F(w_star)) + plant.B @ u_star + d
    res = EquilibriumResult(
        converged=converged,
        t_reached=k * dt,
        drift_residual=plant.space_H.norm(drift),
        output_residual=plant.space_Z.norm(plant.C @ w_star - y_ref),
        iterations=k,
    )
    return w_star, z_star, res


def simulate(plant: Plant, fmap: ForwardingMap, scenario: Scenario) -> RunResult:
    """Integrate the closed loop over the scenario horizon.

    Deterministic: no randomness anywhere in the loop. Returns a truncated
    result with ``diverged=True`` when the H-norm of the state passes 1e6
    or V stops being finite.
    """
    return simulate_lockstep(plant, fmap, [scenario])[0]


def simulate_lockstep(plant: Plant, fmap: ForwardingMap, scenarios: list) -> list:
    """:func:`simulate` for several scenarios, stepped in lockstep as one block.

    Each scenario keeps its own w0, z0, d, y_ref, dt and T; its run leaves
    the block at its own last state, or where it diverges, while the others
    run on. Returns one RunResult per scenario. One scenario gives the
    vector run; in a wider block the runs agree with their own
    :func:`simulate` to roundoff.
    """
    if not scenarios:
        return []
    w0, z0, d, y_ref, ns = _start(plant, fmap, scenarios)
    dt = np.array([sc.dt for sc in scenarios])
    return _record(fmap, _closed_loop(plant, fmap, w0, z0, d, y_ref, dt), scenarios, ns)


def find_equilibrium(
    plant: Plant,
    fmap: ForwardingMap,
    d: Optional[np.ndarray],
    y_ref: np.ndarray,
    *,
    dt: float,
    t_budget: float,
    run: Optional[RunResult] = None,
) -> tuple[np.ndarray, np.ndarray, EquilibriumResult]:
    """Locate the closed-loop equilibrium by budgeted simulation.

    Runs from the origin and checks every 50 steps the mean drift speed,
    the state movement over those steps divided by 50 dt. It stops when
    that speed is at most 1e-10 and returns the mean of the last 20 states.
    Residuals report the stationary-equation defect and the regulation error
    at the averaged point. A search that exhausts the budget without
    stagnating returns ``converged=False``; per the local theory this can
    simply mean (d, y_ref) are too large for the basin. A search whose state
    is no longer finite at a check or at its last state raises
    FloatingPointError naming the step.

    ``run``, when given, is a :func:`simulate` result of this ``d``, ``y_ref``
    and ``dt`` (None and zeros alike); another scenario's run raises
    ValueError. A run from the origin holds the search's states 1..n, so the
    search reads them and steps on from the run's last state only when its
    budget runs past the run; a run that starts elsewhere is not read. Either
    way the result is the same. The search records nothing but its 20-state
    tail; :func:`find_equilibrium_recorded` searches several cells in
    lockstep and also returns the runs they visited, with this function's
    results (to roundoff in a block of more than one cell).
    """
    budget = Scenario(y_ref=y_ref, T=t_budget, dt=dt, d=d)
    w0, z0, d, y_ref, (n,) = _start(plant, fmap, [budget])
    # states 1..n: the origin itself is never part of the tail
    states = islice(_closed_loop(plant, fmap, w0, z0, d, y_ref, dt), 1, None)
    if run is not None:
        _, _, run_d, run_y, _ = _start(plant, fmap, [run.scenario])
        for name, ours, theirs in (("dt", dt, run.scenario.dt), ("d", d, run_d),
                                   ("y_ref", y_ref, run_y)):
            if not np.array_equal(ours, theirs):
                raise ValueError(f"run is of another scenario: its {name} differs")
        if not (np.any(run.w[0]) or np.any(run.z[0])):
            w, z = run.w[-1][:, None], run.z[-1][:, None]  # one column, as d and y_ref
            onward = _closed_loop(plant, fmap, w, z, d, y_ref, dt)
            states = chain(zip(run.w[1:], run.z[1:], run.m[1:], run.u[1:], run.y[1:]),
                           islice(onward, 1, None))
    (out,) = _search(plant, fmap, states, d, y_ref, dt, n)
    if isinstance(out, Exception):
        raise out
    return out


def find_equilibrium_recorded(
    plant: Plant,
    fmap: ForwardingMap,
    cells: list,
    *,
    dt: float,
    t_budget: float,
) -> list:
    """:func:`find_equilibrium` for s cells in lockstep, plus the runs they visited.

    ``cells`` holds one ``(d, y_ref)`` pair per cell, ``d`` in H (None means
    zero) and ``y_ref`` in Z, as :func:`find_equilibrium` takes them. The
    cells step as one block, each with its own stagnation rule and
    tail, and a cell leaves the block when it converges, uses up the budget
    or stops being finite. Returns one entry per cell: ``(w*, z*, result,
    run)``, or the FloatingPointError of a cell whose state stopped being
    finite, while the other cells run on. For a converged cell ``run`` is
    the closed-loop run over ``[0, result.t_reached]`` from the origin; it
    is None otherwise. A block of one cell gives ``find_equilibrium`` and
    ``simulate`` bitwise; in a wider block the columns agree with them to
    roundoff. No cells give [], as :func:`simulate_lockstep` of none does.

    Each of the s cells keeps copies of its first n // s + 1 states, n =
    t_budget / dt, so the copies of a block take the memory of one cell's
    run for the duration of the call. A cell that converges within them
    builds its run from them; one that converges later is simulated again.
    """
    if not cells:
        return []
    cells = [Scenario(y_ref=y_j, T=t_budget, dt=dt, d=d_j) for d_j, y_j in cells]
    w0, z0, d, y_ref, (n, *_) = _start(plant, fmap, cells)
    states = _closed_loop(plant, fmap, w0, z0, d, y_ref, dt)
    state = next(states)
    s = len(cells)
    rows = [np.empty((s, n // s + 1, a.shape[0])) for a in state]
    for r, a in zip(rows, state):
        r[:, 0] = a.T
    found = _search(plant, fmap, states, d, y_ref, dt, n, rows)
    for j, out in enumerate(found):
        if isinstance(out, Exception):
            continue
        res, run = out[2], None
        if res.converged:
            k = res.iterations
            scenario = replace(cells[j], T=res.t_reached)
            run = (_record(fmap, zip(*(r[j, :k + 1] for r in rows)), [scenario], [k])[0]
                   if k <= n // s else simulate(plant, fmap, scenario))
        found[j] = out + (run,)
    return found


def convergence_report(
    result: RunResult,
    fmap: ForwardingMap,
    w_star: np.ndarray,
    z_star: np.ndarray,
) -> RegulationReport:
    """Convergence metrics of a run against a known equilibrium.

    averaged_output_error is the root mean square of ||C w - y_ref||_Z over
    the trailing 1 / kappa time units, the certified decay time of ``fmap``.
    fitted_rate is the negative slope of the least-squares line through
    log ||[w - w*, eta - eta*]||_rho on the mid-decay band (deviation between
    10% and 0.1% of its initial value); None when the deviation never enters
    the band.
    """
    plant = fmap.plant
    space_h, space_z = plant.space_H, plant.space_Z
    y_ref = result.scenario.y_ref
    dt = result.scenario.dt
    rho = fmap.rho

    n_win = max(int(round(1.0 / fmap.kappa / dt)), 1)
    tail = np.array([space_z.inner(y - y_ref, y - y_ref) for y in result.y[-(n_win + 1):]])
    final_err = float(np.sqrt(tail[-1]))
    if len(tail) > 1:
        duration = (len(tail) - 1) * dt
        averaged = float(np.sqrt(np.trapezoid(tail, dx=dt) / duration))
    else:
        averaged = final_err

    eta_star = z_star - StateEvaluation(fmap, w_star).M()
    dev = np.empty(len(result))
    for k in range(len(result)):
        dw = result.w[k] - w_star
        deta = (result.z[k] - result.m[k]) - eta_star
        dev[k] = np.sqrt(
            space_h.inner(dw, dw) + rho * space_z.inner(deta, deta)
        )

    fitted = None
    d0 = dev[0]
    if d0 > 0:
        band = (dev <= 0.1 * d0) & (dev >= 1e-3 * d0)
        if band.sum() >= 5:
            t_band = result.times[band]
            log_dev = np.log(dev[band])
            slope = np.polyfit(t_band, log_dev, 1)[0]
            fitted = float(-slope)

    jumps = np.diff(result.v)
    max_jump = float(jumps.max()) if jumps.size else 0.0
    return RegulationReport(
        final_output_error=final_err,
        averaged_output_error=averaged,
        fitted_rate=fitted,
        lyapunov_monotone=bool(max_jump <= _JUMP_TOL),
        max_lyapunov_jump=max_jump,
        deviation=dev,
    )
