"""Independent oracles and the invariant check battery.

The linear oracle assembles the closed loop densely in [w, eta] coordinates,
where the eta block decouples (C w cancels against M A w when M = -C A^{-1}),
and answers with exact equilibria, spectra, and matrix-exponential
trajectories. Everything here recomputes its reference values from scratch
rather than through the forwarding module, so agreement is meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .evolution import (
    Plant,
    contraction_check,
    estimate_alpha,
    flow,
    tangent_flow,
)
from .forwarding import (
    ForwardingMap,
    StateEvaluation,
    functional_equation_residual,
    uniform_coercivity_check,
)
from .regulator import Scenario, find_equilibrium, simulate

__all__ = [
    "LinearOracle",
    "dense_linear_oracle",
    "FDCheckTable",
    "fd_check_dM",
    "CheckResult",
    "VerificationReport",
    "run_battery",
    "smooth_sample",
    "dissipation_constant",
    "contraction_samples",
    "linearized_decay_samples",
]


# -- dense linear oracle ------------------------------------------------------


@dataclass
class LinearOracle:
    """Exact closed-loop reference for a linear plant (F = 0)."""

    feasible: bool
    m_matrix: np.ndarray
    closed_matrix: np.ndarray
    w_star: np.ndarray
    z_star: np.ndarray
    eta_star: np.ndarray
    spectral_abscissa: float
    note: str = ""

    def trajectory(self, w0, z0, T: float, dt: float):
        """Exact samples of the closed loop at t = 0, dt, ..., via expm."""
        if not self.feasible:
            raise ValueError(f"oracle infeasible: {self.note}")
        n = self.m_matrix.shape[1]
        steps = max(int(round(T / dt)), 1)
        stepper = sla.expm(dt * self.closed_matrix)
        x_star = np.concatenate([self.w_star, self.eta_star])
        dx = np.concatenate([w0, z0 - self.m_matrix @ w0]) - x_star
        times = dt * np.arange(steps + 1)
        w = np.empty((steps + 1, n))
        z = np.empty((steps + 1, self.m_matrix.shape[0]))
        for k in range(steps + 1):
            x = x_star + dx
            w[k] = x[:n]
            z[k] = x[n:] + self.m_matrix @ x[:n]
            dx = stepper @ dx
        return times, w, z


def dense_linear_oracle(
    plant: Plant,
    d: Optional[np.ndarray],
    y_ref: np.ndarray,
) -> LinearOracle:
    """Closed-loop reference for F = 0 plants of desk-scale dimension.

    In [w, eta] coordinates the dynamics are block triangular:

        dw/dt   = -A w + B K eta + d
        deta/dt = -M B K eta - M d - y_ref,   M = -C A^{-1},  K = B* M*.

    Equilibria come from one dense solve; a singular closed-loop matrix
    (equivalently a rank-deficient C A^{-1} B) yields an infeasible report
    instead of an exception.
    """
    n = plant.dim
    if n > 200:
        raise ValueError("oracle covers desk-scale plants only (dim <= 200)")
    probe = plant.F(0.7 * np.ones(n))
    if plant.lip_F != 0.0 or np.any(probe != 0.0):
        raise ValueError("oracle needs a linear plant (F = 0)")
    amat, bmat, cmat = plant.A, plant.B, plant.C
    m = -sla.solve(amat.T, cmat.T).T
    gz = plant.space_Z.gram
    k = plant.space_U.solve_gram(bmat.T @ (m.T @ gz))

    dim_z = cmat.shape[0]
    bk = bmat @ k
    closed = np.zeros((n + dim_z, n + dim_z))
    closed[:n, :n] = -amat
    closed[:n, n:] = bk
    closed[n:, n:] = -m @ bk

    y_ref = np.atleast_1d(np.asarray(y_ref, dtype=float))
    d_vec = np.zeros(n) if d is None else np.asarray(d, dtype=float)
    affine = np.concatenate([d_vec, -m @ d_vec - y_ref])

    svals = np.linalg.svd(closed, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        nan = float("nan")
        return LinearOracle(
            feasible=False,
            m_matrix=m,
            closed_matrix=closed,
            w_star=np.full(n, nan),
            z_star=np.full(dim_z, nan),
            eta_star=np.full(dim_z, nan),
            spectral_abscissa=nan,
            note="singular closed-loop matrix (rank-deficient C A^-1 B)",
        )

    x_star = sla.solve(closed, -affine)
    w_star, eta_star = x_star[:n], x_star[n:]
    return LinearOracle(
        feasible=True,
        m_matrix=m,
        closed_matrix=closed,
        w_star=w_star,
        z_star=eta_star + m @ w_star,
        eta_star=eta_star,
        spectral_abscissa=float(np.max(np.linalg.eigvals(closed).real)),
    )


# -- finite-difference differential check -------------------------------------


def _check_ladder(name: str, values: Sequence[float], min_len: int) -> tuple:
    """``values`` as a tuple, refused unless positive and strictly decreasing."""
    values = tuple(float(v) for v in values)
    if (len(values) < min_len or any(v <= 0 for v in values)
            or any(a <= b for a, b in zip(values, values[1:]))):
        raise ValueError(
            f"{name} needs at least {min_len} positive, strictly decreasing "
            f"values, got {values}"
        )
    return values


@dataclass
class FDCheckTable:
    eps: tuple
    errors: tuple
    orders: tuple


def fd_check_dM(
    fmap: ForwardingMap,
    w: np.ndarray,
    h: np.ndarray,
    eps_ladder: Sequence[float] = (1e-3, 1e-4),
) -> FDCheckTable:
    """Central-difference quotients of M against dM along one direction."""
    eps_ladder = _check_ladder("eps_ladder", eps_ladder, 1)
    dm = StateEvaluation(fmap, w).dM(h)
    space_z = fmap.plant.space_Z
    scale = max(space_z.norm(dm), 1e-14)
    errors = []
    for eps in eps_ladder:
        plus = StateEvaluation(fmap, w + eps * h).M()
        minus = StateEvaluation(fmap, w - eps * h).M()
        quotient = (plus - minus) / (2 * eps)
        errors.append(space_z.norm(quotient - dm) / scale)
    orders = []
    for (e0, e1), (x0, x1) in zip(zip(errors, errors[1:]), zip(eps_ladder, eps_ladder[1:])):
        if e0 > 0 and e1 > 0:
            orders.append(float(np.log(e0 / e1) / np.log(x0 / x1)))
        else:
            orders.append(float("nan"))
    return FDCheckTable(eps=eps_ladder, errors=tuple(errors), orders=tuple(orders))


# -- sampling helpers ---------------------------------------------------------

_SMOOTH_PASSES = 2
_SMOOTH_STEP = 0.5


def smooth_sample(plant: Plant, rng: np.random.Generator, radius: float) -> np.ndarray:
    """Random state pushed through two implicit steps to damp rough modes.

    (I + A/2)^{-2} is a smoothing filter for the discretized operators used
    here; rescaling restores the requested H-norm.
    """
    w = plant.space_H.sample_ball(rng, radius)
    for _ in range(_SMOOTH_PASSES):
        w = plant.solver.solve_step(_SMOOTH_STEP, w)
    nrm = plant.space_H.norm(w)
    if nrm > 0:
        w = w * (radius / nrm) * float(rng.uniform(0.2, 1.0))
    return w


def contraction_samples(
    plant: Plant,
    n_pairs: int,
    radius: float,
    T: float,
    dt: float,
    seed: int = 0,
) -> float:
    """Worst trajectory-pair contraction ratio against e^{-alpha t}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        w1 = smooth_sample(plant, rng, radius)
        w2 = smooth_sample(plant, rng, radius)
        worst = max(worst, contraction_check(plant, w1, w2, T, dt))
    return worst


def linearized_decay_samples(
    plant: Plant,
    n_dirs: int,
    radius: float,
    T: float,
    dt: float,
    seed: int = 0,
) -> float:
    """Worst tangent-flow decay ratio ||v(t)|| / (e^{-alpha t} ||v(0)||)."""
    alpha = plant.require_alpha()
    rng = np.random.default_rng(seed)
    space = plant.space_H
    worst = 0.0
    for _ in range(n_dirs):
        w0 = smooth_sample(plant, rng, radius)
        h = space.sample_sphere(rng)
        base = flow(plant, w0, T, dt)
        tan = tangent_flow(plant, base, h)
        n0 = space.norm(tan.states[0])
        for t, v in zip(tan.times[1:], tan.states[1:]):
            ratio = space.norm(v) / (n0 * np.exp(-alpha * t))
            worst = max(worst, ratio)
    return worst


def dissipation_constant(
    plant: Plant,
    fmap: ForwardingMap,
    *,
    dt: float,
    T: float,
    n_runs: int,
    radius: float,
    seed: int = 0,
) -> float:
    """Fit c in the per-step bound dV/dt <= -(a/2)||w||^2 - (r/2)||u||^2 + c dt.

    Runs d = 0, y_ref = 0 loops from random initial states and returns the
    smallest c that covers every step of every run (clipped at 0).
    """
    alpha = plant.require_alpha()
    rho = fmap.rho
    rng = np.random.default_rng(seed)
    space_h = plant.space_H
    space_u = plant.space_U
    dim_z = plant.space_Z.dim
    worst = 0.0
    for _ in range(n_runs):
        w0 = smooth_sample(plant, rng, radius)
        z0 = radius * 0.1 * rng.standard_normal(dim_z)
        sc = Scenario(y_ref=np.zeros(dim_z), T=T, dt=dt, w0=w0, z0=z0)
        run = simulate(plant, fmap, sc)
        for k in range(len(run) - 1):
            dv = (run.v[k + 1] - run.v[k]) / dt
            wk = run.w[k]
            uk = run.u[k]
            defect = (
                dv
                + 0.5 * alpha * space_h.inner(wk, wk)
                + 0.5 * rho * space_u.inner(uk, uk)
            )
            if defect > worst:
                worst = defect
    return worst / dt


# -- check battery ------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool
    direction: str = "le"  # pass iff value <= bound ("ge": value >= bound)
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "bound": self.bound,
            "pass": self.passed,
            "direction": self.direction,
            "note": self.note,
        }


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    tables: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> str:
        doc = {
            "overall": self.overall,
            "checks": {c.name: c.as_dict() for c in self.checks},
            "tables": self.tables,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=float)


# the battery's bounds and its base flow step are fixed here, not read from
# a config, so no config can loosen the contract
MONOTONICITY_TOL = 1e-3
CONTRACTION_SLACK = 0.05
FUNCEQ_TOL = 1e-3
DUALITY_RTOL = 1e-9
FD_TOL = 1e-3
DISSIPATION_DT = 0.05

BATTERY_DEFAULTS = {
    "seed": 0,
    "radius": 1.0,
    "monotonicity_samples": 25,
    "contraction_pairs": 3,
    "decay_dirs": 3,
    "funceq_samples": 3,
    "duality_pairs": 3,
    "fd_eps": (1e-3, 1e-4),
    "dissipation_runs": 3,
    "coercivity_samples": 20,
    "oracle_dts": (1e-2, 5e-3, 2.5e-3),
}

# a sampled check on no sample keeps its start value (inf or 0), a pass
SAMPLE_COUNTS = ("monotonicity_samples", "contraction_pairs", "decay_dirs",
                 "funceq_samples", "duality_pairs", "dissipation_runs",
                 "coercivity_samples")


def _battery_config(config: Optional[dict]) -> dict:
    """``config`` over ``BATTERY_DEFAULTS``. An unknown key, a sample count
    below 1 or a bad ``fd_eps``/``oracle_dts`` ladder raises naming the key."""
    cfg = dict(BATTERY_DEFAULTS)
    if config:
        unknown = sorted(set(config) - set(BATTERY_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown battery key(s): {', '.join(unknown)}")
        cfg.update(config)
    for key in SAMPLE_COUNTS:
        if int(cfg[key]) < 1:
            raise ValueError(f"battery key {key} must be >= 1, got {cfg[key]}")
    # an FD error needs one step, an observed order two
    cfg["fd_eps"] = _check_ladder("battery key fd_eps", cfg["fd_eps"], 1)
    cfg["oracle_dts"] = _check_ladder("battery key oracle_dts", cfg["oracle_dts"], 2)
    return cfg


def _check_le(name, value, bound, note=""):
    return CheckResult(name, float(value), float(bound), bool(value <= bound), "le", note)


def _check_ge(name, value, bound, note=""):
    return CheckResult(name, float(value), float(bound), bool(value >= bound), "ge", note)


def run_battery(plant: Plant, fmap: ForwardingMap, config: Optional[dict] = None) -> VerificationReport:
    """Execute the invariant checks and aggregate a pass/fail report.

    Mandatory checks: range condition, monotonicity sampling against the
    certificate, trajectory contraction, linearized decay, M(0) = 0,
    functional-equation residual, dM duality and finite differences, and
    Lyapunov dissipation. Uniform coercivity and a global-attraction spot
    check join in when the plant carries the global flag; linear plants
    additionally get the dense-oracle agreement checks.

    Every verdict is made here: the sampling helpers return the number they
    measure, and each check compares it with its bound, a module constant
    (``FUNCEQ_TOL`` and so on) that no config sets. ``config`` sets the seed,
    radius, sample counts and ladders (keys and defaults in
    ``BATTERY_DEFAULTS``; an invalid config is refused before any check
    runs, see :func:`_battery_config`).
    """
    cfg = _battery_config(config)
    seed = int(cfg["seed"])
    radius = float(cfg["radius"])
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    tables: dict = {}
    space_h = plant.space_H
    space_z = plant.space_Z

    # range condition: lambda > 0 with a well-conditioned feedback matrix
    lam_ok = fmap.range_ok and fmap.lam > 0
    checks.append(
        CheckResult("range_condition", float(fmap.lam), 0.0, bool(lam_ok), "ge",
                    "sigma_min(B* dM(0)*)^2 must be positive")
    )

    # monotonicity sampling against the certificate
    quotient = estimate_alpha(
        plant, n_samples=int(cfg["monotonicity_samples"]), radius=radius, seed=seed
    )
    if plant.alpha_cert is None:
        checks.append(
            CheckResult("monotonicity", quotient, float("nan"), False, "ge",
                        "no contraction certificate for this parameter set")
        )
    else:
        checks.append(
            _check_ge("monotonicity", quotient,
                      plant.alpha_cert - MONOTONICITY_TOL,
                      f"sampled quotient vs certified alpha={plant.alpha_cert:.6g}")
        )

    alpha = plant.alpha_cert
    ratio_bound = 1.0 + CONTRACTION_SLACK
    alpha_ok = alpha is not None and alpha > 0
    feasible = fmap.feasible and alpha_ok

    # open-loop trajectory checks only need the plant certificate. The
    # implicit step decays like (1 + a dt)^(-t/dt), slower than e^(-a t) by
    # roughly e^(a^2 t dt / 2); cap dt so that bias stays near 1% and the
    # slack budget measures the dynamics, not the scheme.
    if alpha_ok:
        horizon = 5.0 / alpha
        dt_flow = min(DISSIPATION_DT, horizon / 50.0, 0.004 / alpha)
        worst = contraction_samples(
            plant, int(cfg["contraction_pairs"]), radius, horizon, dt_flow, seed=seed
        )
        checks.append(_check_le("contraction", worst, ratio_bound))
        worst = linearized_decay_samples(
            plant, int(cfg["decay_dirs"]), radius, horizon, dt_flow, seed=seed
        )
        checks.append(_check_le("linearized_decay", worst, ratio_bound))
    else:
        checks.append(CheckResult("contraction", float("nan"), ratio_bound, False,
                                  "le", "not runnable: no contraction certificate"))
        checks.append(CheckResult("linearized_decay", float("nan"), ratio_bound, False,
                                  "le", "not runnable: no contraction certificate"))

    # forwarding map at the origin
    m0 = space_z.norm(StateEvaluation(fmap, np.zeros(plant.dim)).M())
    checks.append(_check_le("forwarding_zero", m0, 1e-12))

    # functional equation on smooth sampled states
    worst = 0.0
    for _ in range(int(cfg["funceq_samples"])):
        w = smooth_sample(plant, rng, radius)
        worst = max(worst, functional_equation_residual(fmap, w))
    checks.append(_check_le("functional_equation", worst, FUNCEQ_TOL))

    # dM duality: <zeta, dM h>_Z == <dM* zeta, h>_H to roundoff
    worst = 0.0
    for _ in range(int(cfg["duality_pairs"])):
        w = smooth_sample(plant, rng, radius)
        h = space_h.sample_sphere(rng)
        zeta = space_z.sample_sphere(rng)
        ev = StateEvaluation(fmap, w)
        lhs = space_z.inner(zeta, ev.dM(h))
        rhs = space_h.inner(ev.dM_adjoint(zeta), h)
        scale = max(abs(lhs), abs(rhs), 1e-14)
        worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(_check_le("dm_duality", worst, DUALITY_RTOL))

    # dM finite differences
    w = smooth_sample(plant, rng, radius)
    h = space_h.sample_sphere(rng)
    fd_table = fd_check_dM(fmap, w, h, cfg["fd_eps"])
    tables["fd_check_dM"] = {
        "eps": list(fd_table.eps),
        "errors": list(fd_table.errors),
        "orders": list(fd_table.orders),
    }
    checks.append(_check_le("dm_fd", min(fd_table.errors), FD_TOL))

    # Lyapunov dissipation with c fitted at dt and re-fitted at dt/2. The
    # inequality is per-step, so a few hundred steps per run suffice; capping
    # by step count keeps stiff-loop plants (small stable dt) affordable.
    if feasible:
        dt0 = DISSIPATION_DT
        if fmap.loop_gain > 0:
            dt0 = min(dt0, 0.5 / fmap.loop_gain)
        t_run = min(2.0 / alpha, 300.0 * dt0)
        c0 = dissipation_constant(
            plant, fmap, dt=dt0, T=t_run, n_runs=int(cfg["dissipation_runs"]),
            radius=radius, seed=seed,
        )
        c1 = dissipation_constant(
            plant, fmap, dt=dt0 / 2, T=t_run, n_runs=int(cfg["dissipation_runs"]),
            radius=radius, seed=seed,
        )
        floor = 1e-8
        checks.append(
            CheckResult("dissipation", c1, 2.0 * c0 + floor, bool(c1 <= 2.0 * c0 + floor),
                        "le", f"c(dt)={c0:.3e}, c(dt/2)={c1:.3e}")
        )
        tables["dissipation"] = {"dt": dt0, "c": c0, "c_half": c1}
    else:
        checks.append(CheckResult("dissipation", float("nan"), 0.0, False, "le",
                                  "not runnable: infeasible closed loop"))

    # optional: uniform coercivity and a global-attraction spot check
    if feasible and plant.global_ok:
        n_samples = int(cfg["coercivity_samples"])
        sigma_sq = uniform_coercivity_check(
            fmap, n_samples=n_samples, radius=radius, seed=seed
        )
        checks.append(
            _check_ge("uniform_coercivity", sigma_sq, fmap.lam_tilde,
                      f"{n_samples} samples, radius {radius}")
        )
        kappa = fmap.kappa
        t_spot = 2.0 / kappa
        dt_spot = min(DISSIPATION_DT * 10, t_spot / 100.0)
        if fmap.loop_gain > 0:
            dt_spot = min(dt_spot, 0.5 / fmap.loop_gain)
        # step-count cap as above; the decay bound scales with the shortened
        # horizon, so the check stays honest, just less ambitious
        t_spot = min(t_spot, 2000.0 * dt_spot)
        w0 = smooth_sample(plant, rng, radius)
        sc = Scenario(y_ref=np.zeros(space_z.dim), T=t_spot, dt=dt_spot, w0=w0)
        run = simulate(plant, fmap, sc)
        dev0 = np.sqrt(2.0 * run.v[0])
        dev1 = np.sqrt(2.0 * run.v[-1])
        bound = float(np.exp(-kappa * t_spot) * ratio_bound)
        value = dev1 / dev0 if dev0 > 0 else 0.0
        checks.append(
            CheckResult("global_attraction", value, bound, bool(value <= bound),
                        "le", f"rho-norm decay over T={t_spot:.3g}")
        )

    # optional: dense-oracle agreement for linear plants
    if plant.lip_F == 0.0 and feasible and plant.dim <= 200:
        checks.extend(_oracle_checks(plant, fmap, cfg, tables, rng))

    return VerificationReport(checks=checks, tables=tables)


def _oracle_checks(plant, fmap, cfg, tables, rng):
    out = []
    dim_z = plant.space_Z.dim
    y_ref = 0.1 * rng.standard_normal(dim_z)
    d = 0.1 * plant.space_H.sample_ball(rng, 1.0)
    oracle = dense_linear_oracle(plant, d, y_ref)
    if not oracle.feasible:
        return [CheckResult("oracle_equilibrium", float("nan"), 0.0, False, "le",
                            oracle.note)]

    m_err = np.max(np.abs(oracle.m_matrix - fmap.m_lin))
    m_scale = max(np.max(np.abs(oracle.m_matrix)), 1e-14)
    out.append(_check_le("oracle_forwarding_map", m_err / m_scale, 1e-10))
    out.append(_check_le("oracle_abscissa", oracle.spectral_abscissa, 0.0,
                         "closed loop must be Hurwitz when lambda > 0, alpha > 0"))

    dt_eq = min(0.05, 0.5 / fmap.loop_gain) if fmap.loop_gain > 0 else 0.05
    ws, zs, res = find_equilibrium(
        plant, fmap, d, y_ref, dt=dt_eq, t_budget=max(200.0, 60.0 / fmap.kappa)
    )
    eq_err = max(
        plant.space_H.norm(ws - oracle.w_star),
        plant.space_Z.norm(zs - oracle.z_star),
    )
    out.append(_check_le("oracle_equilibrium", eq_err, 1e-8,
                         f"converged={res.converged}"))

    dts = cfg["oracle_dts"]
    t_span = 1.0
    w0 = plant.space_H.sample_ball(rng, 1.0)
    z0 = rng.standard_normal(dim_z)
    errs = []
    for dt in dts:
        sc = Scenario(y_ref=y_ref, T=t_span, dt=dt, d=d, w0=w0, z0=z0)
        run = simulate(plant, fmap, sc)
        _, w_ref, z_ref = oracle.trajectory(w0, z0, t_span, dt)
        err = max(
            max(plant.space_H.norm(a - b) for a, b in zip(run.w, w_ref)),
            max(plant.space_Z.norm(a - b) for a, b in zip(run.z, z_ref)),
        )
        errs.append(err)
    orders = [
        float(np.log(e0 / e1) / np.log(d0 / d1))
        for (e0, e1), (d0, d1) in zip(zip(errs, errs[1:]), zip(dts, dts[1:]))
    ]
    tables["oracle_trajectory"] = {"dts": list(dts), "errors": errs, "orders": orders}
    out.append(_check_ge("oracle_trajectory_order", min(orders), 0.9,
                         f"errors {errs[0]:.2e} -> {errs[-1]:.2e}"))
    return out
