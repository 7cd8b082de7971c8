"""Independent oracles and the invariant check battery.

The linear oracle assembles the closed loop densely in [w, eta] coordinates,
where the eta block decouples (C w cancels against M A w when M = -C A^{-1}),
and answers with exact equilibria, spectra, and matrix-exponential
trajectories. Everything here recomputes its reference values from scratch
rather than through the forwarding module, so agreement is meaningful.

Every sampler of the battery lives here, so the battery draws each of its
states through this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .evolution import Plant, flow, tangent_flow
from .forwarding import (
    ForwardingMap,
    StateEvaluation,
    assemble_feedback_matrix,
    functional_equation_residual,
)
from .regulator import Scenario, find_equilibrium, simulate, simulate_lockstep
from .spaces import weighted_singular_values

__all__ = [
    "LinearOracle",
    "dense_linear_oracle",
    "fd_check_dM",
    "CheckResult",
    "VerificationReport",
    "run_battery",
    "smooth_sample",
    "estimate_alpha",
    "dissipation_constant",
    "contraction_samples",
    "linearized_decay_samples",
    "uniform_coercivity_check",
]


# -- dense linear oracle ------------------------------------------------------


@dataclass
class LinearOracle:
    """Exact closed-loop reference for a linear plant (F = 0)."""

    m_matrix: np.ndarray
    closed_matrix: np.ndarray
    w_star: np.ndarray
    z_star: np.ndarray
    eta_star: np.ndarray
    spectral_abscissa: float

    def trajectory(self, w0, z0, T: float, dt: float):
        """Exact (w, z) samples of the closed loop at t = 0, dt, ..., via expm."""
        n = self.m_matrix.shape[1]
        steps = max(int(round(T / dt)), 1)
        stepper = _expm(dt * self.closed_matrix)
        x_star = np.concatenate([self.w_star, self.eta_star])
        dx = np.concatenate([w0, z0 - self.m_matrix @ w0]) - x_star
        w = np.empty((steps + 1, n))
        z = np.empty((steps + 1, self.m_matrix.shape[0]))
        for k in range(steps + 1):
            x = x_star + dx
            w[k] = x[:n]
            z[k] = x[n:] + self.m_matrix @ x[:n]
            dx = stepper @ dx
        return w, z


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring a Taylor polynomial.

    a / 2^s has 1-norm at most 1/2, where the degree-16 Taylor polynomial
    of e^x leaves a truncation error near 0.5^17 / 17! (2e-20), far below
    roundoff; s squarings undo the scaling (Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005, on the method). scipy's expm is the tests' reference.
    """
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    x = a / 2.0**s
    term = np.eye(len(a))
    out = term.copy()
    for k in range(1, 17):
        term = term.dot(x) / k
        out += term
    for _ in range(s):
        out = out.dot(out)
    return out


def dense_linear_oracle(
    plant: Plant,
    d: Optional[np.ndarray],
    y_ref: np.ndarray,
) -> LinearOracle:
    """Closed-loop reference for F = 0 plants of desk-scale dimension.

    In [w, eta] coordinates the dynamics are block triangular:

        dw/dt   = -A w + B K eta + d
        deta/dt = -M B K eta - M d - y_ref,   M = -C A^{-1},  K = B* M*.

    Equilibria come from one dense solve; a singular closed-loop matrix, that
    is a rank-deficient C A^{-1} B, raises ``np.linalg.LinAlgError``.
    """
    n = plant.dim
    if n > 200:
        raise ValueError("oracle covers desk-scale plants only (dim <= 200)")
    probe = plant.F(0.7 * np.ones(n))
    if plant.lip_F != 0.0 or np.any(probe != 0.0):
        raise ValueError("oracle needs a linear plant (F = 0)")
    amat, bmat, cmat = plant.A, plant.B, plant.C
    m = -np.linalg.solve(amat.T, cmat.T).T
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
        raise np.linalg.LinAlgError("singular closed-loop matrix (rank-deficient C A^-1 B)")

    x_star = np.linalg.solve(closed, -affine)
    w_star, eta_star = x_star[:n], x_star[n:]
    return LinearOracle(
        m_matrix=m,
        closed_matrix=closed,
        w_star=w_star,
        z_star=eta_star + m @ w_star,
        eta_star=eta_star,
        spectral_abscissa=float(np.max(np.linalg.eigvals(closed).real)),
    )


# -- finite-difference differential check -------------------------------------


def fd_check_dM(fmap: ForwardingMap, w: np.ndarray, h: np.ndarray) -> dict:
    """Central-difference quotients of M against dM along one direction, one
    per step of ``FD_EPS``: the ``{"eps", "errors", "orders"}`` table that
    verify.json stores, each a list.

    An order is NaN (null in verify.json) unless both of its errors exceed
    10 times the quotient's roundoff floor eps_mach ||M(w)|| / (eps ||dM h||),
    below which the errors measure cancellation, not truncation.
    """
    ev = StateEvaluation(fmap, w)
    dm = ev.dM(h)
    space_z = fmap.plant.space_Z
    scale = max(space_z.norm(dm), 1e-14)
    roundoff = np.finfo(float).eps * space_z.norm(ev.M()) / scale
    errors = []
    for eps in FD_EPS:
        plus = StateEvaluation(fmap, w + eps * h).M()
        minus = StateEvaluation(fmap, w - eps * h).M()
        quotient = (plus - minus) / (2 * eps)
        errors.append(space_z.norm(quotient - dm) / scale)
    resolved = [e > 10 * roundoff / eps for e, eps in zip(errors, FD_EPS, strict=True)]
    orders = [order if ok0 and ok1 else float("nan") for order, ok0, ok1
              in zip(_observed_orders(errors, FD_EPS), resolved, resolved[1:])]
    return {"eps": list(FD_EPS), "errors": errors, "orders": orders}


def _observed_orders(errors, steps) -> list:
    """log(e0 / e1) / log(h0 / h1) of each two neighbouring errors and their
    steps; NaN where an error is not positive."""
    return [float(np.log(e0 / e1) / np.log(h0 / h1)) if e0 > 0 and e1 > 0 else float("nan")
            for (e0, e1), (h0, h1) in zip(zip(errors, errors[1:]), zip(steps, steps[1:]))]


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


def estimate_alpha(plant: Plant, n_samples: int = 50, radius: float = 1.0,
                   seed: int = 0) -> float:
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


def contraction_samples(
    plant: Plant,
    n_pairs: int,
    radius: float,
    T: float,
    dt: float,
    seed: int = 0,
) -> float:
    """Worst ratio ||T_t w1 - T_t w2||_H / (e^{-alpha t} ||w1 - w2||_H) over
    sampled pairs (w1, w2) and the grid t = 0, dt, ..., T.

    alpha is the plant certificate; contraction at that rate holds when the
    ratio stays at 1 up to the time-stepping bias. A pair with w1 == w2
    adds nothing.
    """
    alpha = plant.require_alpha()
    rng = np.random.default_rng(seed)
    space = plant.space_H
    worst = 0.0
    for _ in range(n_pairs):
        w1 = smooth_sample(plant, rng, radius)
        w2 = smooth_sample(plant, rng, radius)
        d0 = space.norm(w1 - w2)
        if d0 == 0.0:
            continue
        t1, t2 = flow(plant, w1, T, dt), flow(plant, w2, T, dt)
        for k in range(len(t1)):
            worst = max(worst, space.norm(t1[k] - t2[k]) / (np.exp(-alpha * (dt * k)) * d0))
    return float(worst)


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
        tan = tangent_flow(plant, flow(plant, w0, T, dt), dt, h)
        n0 = space.norm(tan[0])
        for k in range(1, len(tan)):
            ratio = space.norm(tan[k]) / (n0 * np.exp(-alpha * (dt * k)))
            worst = max(worst, ratio)
    return worst


def uniform_coercivity_check(fmap: ForwardingMap, n_samples: int, radius: float,
                             seed: int = 0) -> float:
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


def _dissipation_scenarios(plant: Plant, *, dt, T, n_runs, radius, seed) -> list:
    """The d = 0, y_ref = 0 scenarios of the dissipation fit, their random
    initial states drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    dim_z = plant.space_Z.dim
    scenarios = []
    for _ in range(n_runs):
        w0 = smooth_sample(plant, rng, radius)
        z0 = radius * 0.1 * rng.standard_normal(dim_z)
        scenarios.append(Scenario(y_ref=np.zeros(dim_z), T=T, dt=dt, w0=w0, z0=z0))
    return scenarios


def _dissipation_fit(plant: Plant, fmap: ForwardingMap, runs: list, dt: float) -> float:
    """The smallest c >= 0 that covers every step of ``runs``, all at step dt."""
    alpha = plant.require_alpha()
    rho = fmap.rho
    space_h = plant.space_H
    space_u = plant.space_U
    worst = 0.0
    for run in runs:
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

    Runs d = 0, y_ref = 0 loops from random initial states, stepped as one
    lockstep block, and returns the smallest c that covers every step of
    every run (clipped at 0).
    """
    plant.require_alpha()
    scenarios = _dissipation_scenarios(plant, dt=dt, T=T, n_runs=n_runs, radius=radius,
                                       seed=seed)
    return _dissipation_fit(plant, fmap, simulate_lockstep(plant, fmap, scenarios), dt)


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
        """Strict JSON: a non-finite number, in a check or a table, is null."""
        doc = {
            "overall": self.overall,
            "checks": {c.name: c.as_dict() for c in self.checks},
            "tables": self.tables,
        }
        return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, default=float)


def _finite_or_null(x):
    """``x`` with every non-finite float in it, nested in dicts and lists, as None."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


# the battery's bounds, its base flow step, the radius of its sampled states,
# the FD steps of fd_check_dM and the oracle's step sizes (each ladder
# strictly decreasing, the oracle's of two or more for an observed order, and
# scaled down, ratios kept, where its first step exceeds 0.5 / loop_gain) are
# fixed here, not read from a config, so no config can loosen the contract
MONOTONICITY_TOL = 1e-3
CONTRACTION_SLACK = 0.05
FUNCEQ_TOL = 1e-3
DUALITY_RTOL = 1e-9
FD_TOL = 1e-3
FD_EPS = (1e-3, 1e-4)
DISSIPATION_DT = 0.05
SAMPLE_RADIUS = 1.0
ORACLE_DTS = (1e-2, 5e-3, 2.5e-3)
# the sample counts that no config sets
MONOTONICITY_SAMPLES = 25
CONTRACTION_PAIRS = 3
DECAY_DIRS = 3
FUNCEQ_SAMPLES = 3
DUALITY_PAIRS = 3

# the sample counts of the dissipation fit and uniform coercivity, the only
# battery config (a count below 1 is refused: a check on no sample keeps its
# start value, inf or 0, a pass)
BATTERY_DEFAULTS = {"dissipation_runs": 3, "coercivity_samples": 20}


def _battery_config(config: Optional[dict]) -> dict:
    """``config`` over ``BATTERY_DEFAULTS``. An unknown key or a sample
    count below 1 raises naming the key."""
    cfg = dict(BATTERY_DEFAULTS)
    if config:
        unknown = sorted(set(config) - set(BATTERY_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown battery key(s): {', '.join(unknown)}")
        cfg.update(config)
    for key, count in cfg.items():
        if int(count) < 1:
            raise ValueError(f"battery key {key} must be >= 1, got {count}")
    return cfg


def _check_le(name, value, bound, note=""):
    return CheckResult(name, float(value), float(bound), bool(value <= bound), "le", note)


def _check_ge(name, value, bound, note=""):
    return CheckResult(name, float(value), float(bound), bool(value >= bound), "ge", note)


def _stable_dt(fmap: ForwardingMap, dt: float) -> float:
    """``dt`` capped at 0.5 / loop_gain, a quarter of the z-step's stability limit."""
    return min(dt, 0.5 / fmap.loop_gain) if fmap.loop_gain > 0 else dt


def run_battery(plant: Plant, fmap: ForwardingMap, config: Optional[dict] = None,
                seed: int = 0) -> VerificationReport:
    """Execute the invariant checks and aggregate a pass/fail report.

    Mandatory checks: range condition, monotonicity sampling against the
    certificate, trajectory contraction, linearized decay, M(0) = 0,
    functional-equation residual, dM duality and finite differences, and
    Lyapunov dissipation. Uniform coercivity and a global-attraction spot
    check join in when the plant carries the global flag; linear plants
    additionally get the dense-oracle agreement checks.

    Every verdict is made here: the sampling helpers return the number they
    measure, and each check compares it with its bound, a module constant
    (``FUNCEQ_TOL`` and so on) that no config sets. ``config`` sets two
    sample counts (keys and defaults in ``BATTERY_DEFAULTS``; an invalid
    config is refused before any check runs, see :func:`_battery_config`),
    the other five are constants (``MONOTONICITY_SAMPLES``,
    ``CONTRACTION_PAIRS``, ``DECAY_DIRS``, ``FUNCEQ_SAMPLES``,
    ``DUALITY_PAIRS``), and ``seed`` seeds every sample.
    """
    cfg = _battery_config(config)
    radius = SAMPLE_RADIUS
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []
    tables: dict = {}
    space_h = plant.space_H
    space_z = plant.space_Z

    # range condition: lambda > 0 with a well-conditioned feedback matrix;
    # not a bound comparison, so built by hand
    lam_ok = fmap.range_ok and fmap.lam > 0
    checks.append(
        CheckResult("range_condition", float(fmap.lam), 0.0, bool(lam_ok), "ge",
                    "sigma_min(B* dM(0)*)^2 must be positive")
    )

    # monotonicity sampling against the certificate; with none, a NaN bound
    # fails the check
    quotient = estimate_alpha(plant, n_samples=MONOTONICITY_SAMPLES, radius=radius, seed=seed)
    if plant.alpha_cert is None:
        checks.append(_check_ge("monotonicity", quotient, float("nan"),
                                "no contraction certificate for this parameter set"))
    else:
        checks.append(
            _check_ge("monotonicity", quotient,
                      plant.alpha_cert - MONOTONICITY_TOL,
                      f"sampled quotient vs certified alpha={plant.alpha_cert:.6g}")
        )

    alpha = plant.alpha_cert
    ratio_bound = 1.0 + CONTRACTION_SLACK
    alpha_ok = alpha is not None and alpha > 0

    # open-loop trajectory checks only need the plant certificate. The
    # implicit step decays like (1 + a dt)^(-t/dt), slower than e^(-a t) by
    # roughly e^(a^2 t dt / 2); cap dt so that bias stays near 1% and the
    # slack budget measures the dynamics, not the scheme.
    if alpha_ok:
        horizon = 5.0 / alpha
        dt_flow = min(DISSIPATION_DT, horizon / 50.0, 0.004 / alpha)
        worst = contraction_samples(plant, CONTRACTION_PAIRS, radius, horizon, dt_flow,
                                    seed=seed)
        checks.append(_check_le("contraction", worst, ratio_bound))
        worst = linearized_decay_samples(plant, DECAY_DIRS, radius, horizon, dt_flow,
                                         seed=seed)
        checks.append(_check_le("linearized_decay", worst, ratio_bound))
    else:
        # a NaN value fails each check
        for name in ("contraction", "linearized_decay"):
            checks.append(_check_le(name, float("nan"), ratio_bound,
                                    "not runnable: no contraction certificate"))

    # forwarding map at the origin
    m0 = space_z.norm(StateEvaluation(fmap, np.zeros(plant.dim)).M())
    checks.append(_check_le("forwarding_zero", m0, 1e-12))

    # functional equation on smooth sampled states
    worst = 0.0
    for _ in range(FUNCEQ_SAMPLES):
        w = smooth_sample(plant, rng, radius)
        worst = max(worst, functional_equation_residual(fmap, w))
    checks.append(_check_le("functional_equation", worst, FUNCEQ_TOL))

    # dM duality: <zeta, dM h>_Z == <dM* zeta, h>_H to roundoff
    worst = 0.0
    for _ in range(DUALITY_PAIRS):
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
    tables["fd_check_dM"] = fd_table = fd_check_dM(fmap, w, h)
    checks.append(_check_le("dm_fd", min(fd_table["errors"]), FD_TOL))

    # Lyapunov dissipation with c fitted at dt and re-fitted at dt/2 on the
    # same samples. The inequality is per-step, so a few hundred steps per
    # run suffice; capping by step count keeps stiff-loop plants (small
    # stable dt) affordable. The global-attraction spot run joins in when the
    # plant carries the global flag, its w0 drawn right after the FD sample;
    # all these closed loops step as one lockstep block.
    if fmap.feasible:
        dt0 = _stable_dt(fmap, DISSIPATION_DT)
        t_run = min(2.0 / alpha, 300.0 * dt0)
        n_runs = int(cfg["dissipation_runs"])
        scenarios = _dissipation_scenarios(plant, dt=dt0, T=t_run, n_runs=n_runs,
                                           radius=radius, seed=seed)
        scenarios += [replace(sc, dt=dt0 / 2) for sc in scenarios]
        if plant.global_ok:
            kappa = fmap.kappa
            t_spot = 2.0 / kappa
            dt_spot = _stable_dt(fmap, min(DISSIPATION_DT * 10, t_spot / 100.0))
            # step-count cap as above; the decay bound scales with the
            # shortened horizon, so the check stays honest, just less ambitious
            capped = 2000.0 * dt_spot < t_spot
            t_spot = min(t_spot, 2000.0 * dt_spot)
            w0 = smooth_sample(plant, rng, radius)
            scenarios.append(Scenario(y_ref=np.zeros(space_z.dim), T=t_spot, dt=dt_spot,
                                      w0=w0))
        runs = simulate_lockstep(plant, fmap, scenarios)
        c0 = _dissipation_fit(plant, fmap, runs[:n_runs], dt0)
        c1 = _dissipation_fit(plant, fmap, runs[n_runs:2 * n_runs], dt0 / 2)
        floor = 1e-8
        checks.append(_check_le("dissipation", c1, 2.0 * c0 + floor,
                                f"c(dt)={c0:.3e}, c(dt/2)={c1:.3e}"))
        tables["dissipation"] = {"dt": dt0, "c": c0, "c_half": c1, "t_run": t_run,
                                 "runs": n_runs}
    else:
        checks.append(_check_le("dissipation", float("nan"), 0.0,
                                "not runnable: infeasible closed loop"))

    # optional: uniform coercivity and the global-attraction spot check
    if fmap.feasible and plant.global_ok:
        n_samples = int(cfg["coercivity_samples"])
        sigma_sq = uniform_coercivity_check(
            fmap, n_samples=n_samples, radius=radius, seed=seed
        )
        checks.append(
            _check_ge("uniform_coercivity", sigma_sq, fmap.lam_tilde,
                      f"{n_samples} samples, radius {radius}")
        )
        run = runs[-1]
        dev0 = np.sqrt(2.0 * run.v[0])
        dev1 = np.sqrt(2.0 * run.v[-1])
        bound = float(np.exp(-kappa * t_spot) * ratio_bound)
        value = dev1 / dev0 if dev0 > 0 else 0.0
        checks.append(_check_le("global_attraction", value, bound,
                                f"rho-norm decay over T={t_spot:.3g}"))
        tables["global_attraction"] = {"dt": dt_spot, "t": t_spot, "step_capped": capped}

    # optional: dense-oracle agreement for linear plants
    if plant.lip_F == 0.0 and fmap.feasible and plant.dim <= 200:
        checks.extend(_oracle_checks(plant, fmap, tables, rng))

    return VerificationReport(checks=checks, tables=tables)


def _oracle_checks(plant, fmap, tables, rng):
    out = []
    dim_z = plant.space_Z.dim
    y_ref = 0.1 * rng.standard_normal(dim_z)
    d = 0.1 * plant.space_H.sample_ball(rng, 1.0)
    try:
        oracle = dense_linear_oracle(plant, d, y_ref)
    except np.linalg.LinAlgError as exc:
        return [_check_le("oracle_equilibrium", float("nan"), 0.0, str(exc))]

    m_err = np.max(np.abs(oracle.m_matrix - fmap.m_lin))
    m_scale = max(np.max(np.abs(oracle.m_matrix)), 1e-14)
    out.append(_check_le("oracle_forwarding_map", m_err / m_scale, 1e-10))
    out.append(_check_le("oracle_abscissa", oracle.spectral_abscissa, 0.0,
                         "closed loop must be Hurwitz when lambda > 0, alpha > 0"))

    dt_eq = _stable_dt(fmap, 0.05)
    ws, zs, res = find_equilibrium(
        plant, fmap, d, y_ref, dt=dt_eq, t_budget=max(200.0, 60.0 / fmap.kappa)
    )
    eq_err = max(
        plant.space_H.norm(ws - oracle.w_star),
        plant.space_Z.norm(zs - oracle.z_star),
    )
    out.append(_check_le("oracle_equilibrium", eq_err, 1e-8,
                         f"converged={res.converged}"))

    scale = _stable_dt(fmap, ORACLE_DTS[0]) / ORACLE_DTS[0]
    dts = [dt * scale for dt in ORACLE_DTS]
    t_span = 1.0
    w0 = plant.space_H.sample_ball(rng, 1.0)
    z0 = rng.standard_normal(dim_z)
    errs = []
    for dt in dts:
        sc = Scenario(y_ref=y_ref, T=t_span, dt=dt, d=d, w0=w0, z0=z0)
        run = simulate(plant, fmap, sc)
        w_ref, z_ref = oracle.trajectory(w0, z0, t_span, dt)
        errs.append(max(
            max(plant.space_H.norm(a - b) for a, b in zip(run.w, w_ref, strict=True)),
            max(plant.space_Z.norm(a - b) for a, b in zip(run.z, z_ref, strict=True)),
        ))
    orders = _observed_orders(errs, dts)
    tables["oracle_trajectory"] = {"dts": dts, "errors": errs, "orders": orders}
    out.append(_check_ge("oracle_trajectory_order", min(orders), 0.9,
                         f"errors {errs[0]:.2e} -> {errs[-1]:.2e}"))
    return out
