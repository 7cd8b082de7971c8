"""Acceptance suite: one test per release criterion, one printed line each.

Each test prints ``criterion N <name>: PASS|FAIL (...)`` on the real stdout
(bypassing capture via ``capfd.disabled()``), then asserts the stated
tolerances. Criteria with runtime budgets assert wall time too. All randomness
is seeded; the measured values quoted in comments come from the probe scripts
used to freeze the parameters.
"""

import json
import textwrap
import time

import numpy as np
import pytest

from forwardreg import (
    Scenario,
    StateEvaluation,
    build_forwarding,
    cli,
    contraction_samples,
    convergence_report,
    dense_linear_oracle,
    dissipation_constant,
    fd_check_dM,
    find_equilibrium,
    find_equilibrium_along,
    functional_equation_residual,
    linearized_decay_samples,
    make_linear_benchmark,
    make_sine_gordon,
    make_wilson_cowan,
    simulate,
    smooth_sample,
    uniform_coercivity_check,
)

from helpers import make_scalar_plant


def _report(capfd, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"\ncriterion {num} {name}: {status} ({detail})", flush=True)


@pytest.fixture(scope="module")
def sine_gordon():
    return make_sine_gordon()


@pytest.fixture(scope="module")
def wilson_cowan():
    return make_wilson_cowan()


def test_criterion_1_linear_oracle_equivalence(capfd):
    t0 = time.perf_counter()
    plant = make_linear_benchmark(n=20, seed=0)
    fmap = build_forwarding(plant, dt_quad=0.05)
    rng = np.random.default_rng(0)
    y_ref = 0.1 * rng.standard_normal(plant.space_Z.dim)
    d = 0.1 * plant.space_H.sample_ball(rng, 1.0)
    oracle = dense_linear_oracle(plant, d, y_ref)

    m_err = 0.0
    for _ in range(5):
        w = plant.space_H.sample_ball(rng, 2.0)
        ref = oracle.m_matrix @ w
        num = plant.space_Z.norm(StateEvaluation(fmap, w).M() - ref)
        m_err = max(m_err, num / max(plant.space_Z.norm(ref), 1e-14))

    w0 = plant.space_H.sample_ball(rng, 1.0)
    z0 = 0.1 * rng.standard_normal(plant.space_Z.dim)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        run = simulate(plant, fmap,
                       Scenario(y_ref=y_ref, T=2.0, dt=dt, d=d, w0=w0, z0=z0))
        _, w_ref, z_ref = oracle.trajectory(w0, z0, 2.0, dt)
        errs.append(max(
            plant.space_H.norm(run.w[k] - w_ref[k])
            + plant.space_Z.norm(run.z[k] - z_ref[k])
            for k in range(len(run))
        ))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    dt_eq = min(0.05, 0.5 / fmap.loop_gain)
    ws, zs, eq = find_equilibrium(plant, fmap, d, y_ref, dt=dt_eq,
                                  t_budget=max(200.0, 60.0 / fmap.kappa))
    eq_dev = plant.space_H.norm(ws - oracle.w_star) \
        + plant.space_Z.norm(zs - oracle.z_star)
    elapsed = time.perf_counter() - t0

    ok = (m_err <= 1e-8 and min(orders) >= 0.9 and eq_dev <= 1e-8
          and eq.output_residual <= 1e-8 and elapsed < 10.0)
    _report(capfd, 1, "linear-oracle-equivalence", ok,
            f"M={m_err:.1e} orders={orders[0]:.2f},{orders[1]:.2f} "
            f"eq={eq_dev:.1e} out={eq.output_residual:.1e} t={elapsed:.1f}s")
    # measured: 1.4e-15, orders 0.95/0.97, eq 1.1e-09, out 5.4e-11, 1.3 s
    assert m_err <= 1e-8
    assert min(orders) >= 0.9, errs
    assert eq.converged and eq_dev <= 1e-8
    assert eq.output_residual <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_functional_equation_refinement(sine_gordon, capfd):
    t0 = time.perf_counter()
    plant = sine_gordon
    alpha = plant.alpha_cert
    tau0 = 5.0 / alpha
    base = build_forwarding(plant, dt_quad=0.05, tau_max=tau0)
    fine = build_forwarding(plant, dt_quad=0.025, tau_max=tau0 + 2.0 / alpha)
    rng = np.random.default_rng(7)
    states = [smooth_sample(plant, rng, 1.0) for _ in range(20)]
    res0 = np.array([functional_equation_residual(base, w) for w in states])
    res1 = np.array([functional_equation_residual(fine, w) for w in states])
    ratio = float(res0.max() / res1.max())
    elapsed = time.perf_counter() - t0

    ok = bool(res0.max() <= 1e-3 and ratio >= 1.7 and elapsed < 120.0)
    _report(capfd, 2, "functional-equation-residual", ok,
            f"max={res0.max():.1e} refined={res1.max():.1e} ratio={ratio:.2f} "
            f"t={elapsed:.1f}s")
    # measured: max 9.1e-06, refined 4.7e-06, ratio 1.94, 17 s
    assert np.all(res0 <= 1e-3)
    assert ratio >= 1.7
    assert elapsed < 120.0


def test_criterion_3_contraction_and_linearized_decay(sine_gordon, wilson_cowan, capfd):
    t0 = time.perf_counter()
    details = []
    worsts = []
    for plant in (sine_gordon, wilson_cowan):
        alpha = plant.alpha_cert
        # dt small against 1/alpha so the implicit-step decay bias stays well
        # inside the 5% slack over the 5/alpha horizon
        T, dt = 5.0 / alpha, 0.004 / alpha
        wc_pairs = contraction_samples(plant, n_pairs=10, radius=1.0,
                                       T=T, dt=dt, seed=0)
        wc_dirs = linearized_decay_samples(plant, n_dirs=10, radius=1.0,
                                           T=T, dt=dt, seed=1)
        worsts += [wc_pairs, wc_dirs]
        details.append(f"{plant.name}: pairs={wc_pairs:.3f} dirs={wc_dirs:.3f}")
    elapsed = time.perf_counter() - t0

    ok = bool(max(worsts) <= 1.05 and elapsed < 120.0)
    _report(capfd, 3, "contraction-and-linearized-decay", ok,
            "; ".join(details) + f" bound=1.05 t={elapsed:.1f}s")
    # measured: sine-G 1.000/0.412, Wilson-Cowan 1.000/0.999, 7 s
    assert max(worsts) <= 1.05
    assert elapsed < 120.0


def test_criterion_4_differential_consistency(sine_gordon, capfd):
    scalar = make_scalar_plant(a=2.0, c=0.1)
    f_scalar = build_forwarding(scalar, dt_quad=0.002, tail_tol=1e-10)
    tab_scalar = fd_check_dM(f_scalar, np.array([0.3]), np.array([1.0]),
                             eps_ladder=(1e-3, 1e-4))

    f_sg = build_forwarding(sine_gordon, dt_quad=0.02, tail_tol=1e-8)
    rng = np.random.default_rng(3)
    w = smooth_sample(sine_gordon, rng, 1.0)
    h = smooth_sample(sine_gordon, rng, 1.0)
    tab_sg = fd_check_dM(f_sg, w, h, eps_ladder=(1e-3, 1e-4))

    dual = 0.0
    for plant, fmap, ws, hs in (
        (scalar, f_scalar, np.array([0.4]), np.array([0.8])),
        (sine_gordon, f_sg, w, h),
    ):
        zeta = 0.7 * np.ones(plant.space_Z.dim)
        ev = StateEvaluation(fmap, ws)
        lhs = plant.space_Z.inner(ev.dM(hs), zeta)
        rhs = plant.space_H.inner(hs, ev.dM_adjoint(zeta))
        dual = max(dual, abs(lhs - rhs) / max(abs(lhs), 1e-14))

    ok = bool(tab_scalar.errors[-1] <= 1e-4 and tab_sg.errors[-1] <= 1e-3
              and dual <= 1e-9)
    _report(capfd, 4, "differential-consistency", ok,
            f"fd_scalar={tab_scalar.errors[-1]:.1e} fd_sg={tab_sg.errors[-1]:.1e} "
            f"duality={dual:.1e}")
    # measured: scalar 1.4e-10 at eps 1e-4, sine-G 2.6e-12, duality 1.2e-13
    assert tab_scalar.errors[-1] <= 1e-4
    assert tab_sg.errors[-1] <= 1e-3
    assert dual <= 1e-9


def test_criterion_5_dissipation_constant_stability(sine_gordon, wilson_cowan, capfd):
    details = []
    for plant, dt_quad, dt in ((sine_gordon, 1.5, 0.05), (wilson_cowan, 5.0, 0.002)):
        fmap = build_forwarding(plant, dt_quad=dt_quad, tail_tol=1e-4)
        T = 100 * dt
        c0 = dissipation_constant(plant, fmap, dt=dt, T=T, n_runs=10,
                                  radius=1.0, seed=2)
        c_half = dissipation_constant(plant, fmap, dt=dt / 2, T=T, n_runs=10,
                                      radius=1.0, seed=2)
        details.append(f"{plant.name}: c={c0:.2e} c_half={c_half:.2e}")
        # measured: both exactly 0 for both plants (defect never positive)
        assert c_half <= 2.0 * c0 + 1e-8, details[-1]
        assert c0 <= 1.0, details[-1]
    _report(capfd, 5, "lyapunov-dissipation", True, "; ".join(details))


def test_criterion_6_sine_gordon_regulation(sine_gordon, capfd):
    t0 = time.perf_counter()
    plant = sine_gordon
    fmap = build_forwarding(plant, dt_quad=0.75, tail_tol=3e-6)
    kappa = fmap.kappa
    rng = np.random.default_rng(11)
    d = smooth_sample(plant, rng, 1.0)
    d = d * (1e-2 / plant.space_H.norm(d))
    y_ref = np.array([1e-2])
    dt = 0.5
    deadline = 60.0 / kappa

    # the transient dies at ~0.33/s, so T = 400 << 60/kappa already contains
    # the full decay band plus a trailing 1/kappa averaging window
    T = 400.0
    assert T <= deadline
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=T, dt=dt, d=d))
    # the search from the origin reads the run's states before stepping on
    ws, zs, eq = find_equilibrium_along(run, fmap, t_budget=deadline)
    rep = convergence_report(run, fmap, ws, zs, window=1.0 / kappa)
    elapsed = time.perf_counter() - t0

    rate = rep.fitted_rate if rep.fitted_rate is not None else float("nan")
    ok = bool(eq.converged and rep.averaged_output_error <= 1e-3
              and rate >= kappa / 2 and elapsed < 300.0)
    _report(capfd, 6, "sine-gordon-regulation", ok,
            f"avg_err={rep.averaged_output_error:.1e} rate={rate:.3f} "
            f"kappa/2={kappa / 2:.4f} t={elapsed:.1f}s")
    # measured: avg 5.1e-18, rate 0.335 vs kappa/2 = 0.0094, ~17 s
    assert eq.converged
    assert rep.averaged_output_error <= 1e-3
    assert rate >= kappa / 2
    assert elapsed < 300.0


def test_criterion_7_wilson_cowan_global_regulation(wilson_cowan, capfd):
    t0 = time.perf_counter()
    plant = wilson_cowan
    fmap = build_forwarding(plant, dt_quad=5.0, tail_tol=1e-4)
    rng = np.random.default_rng(4)
    w0 = smooth_sample(plant, rng, 10.0)
    w0 = w0 * (10.0 / plant.space_H.norm(w0))
    y_ref = np.full(plant.space_Z.dim, 0.02)
    dt = 0.004
    assert dt * fmap.loop_gain < 2.0  # explicit z-step stability margin

    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=250.0, dt=dt, w0=w0))
    out_err = plant.space_Z.norm(run.y[-1] - y_ref)
    drift_speed = plant.space_H.norm(run.w[-1] - run.w[-51]) / (50 * dt)
    sigma_sq = uniform_coercivity_check(fmap, n_samples=50, radius=10.0, seed=5)
    elapsed = time.perf_counter() - t0

    ok = bool(not run.diverged and out_err <= 1e-4 and drift_speed <= 1e-5
              and sigma_sq >= fmap.lam_tilde > 0 and elapsed < 180.0)
    _report(capfd, 7, "wilson-cowan-global-regulation", ok,
            f"out_err={out_err:.1e} drift={drift_speed:.1e} "
            f"coercivity={sigma_sq:.0f}>={fmap.lam_tilde:.0f} "
            f"t={elapsed:.1f}s")
    # measured: out 2.4e-06, drift 1.4e-06, coercivity 284 >= 75, ~85 s
    assert not run.diverged
    assert out_err <= 1e-4
    assert drift_speed <= 1e-5
    assert sigma_sq >= fmap.lam_tilde > 0
    assert elapsed < 180.0


def test_criterion_8_gain_formulas_bitwise(tmp_path, capfd):
    results = []
    for name, plant_section in (
        ("scalar", "kind = scalar_linear\na = 2\nb = 1\nc = 1"),
        ("sine_gordon", "kind = sine_gordon\nn = 50"),
    ):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[plant]\n{plant_section}\n\n[forwarding]\ndt_quad = 0.5\n")
        out = tmp_path / name
        assert cli.main(["gains", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "gains.json").read_text())
        # bitwise reproduction from the emitted lambda, alpha, ||B||
        assert doc["lambda_tilde"] == doc["lambda"] / 3.0
        assert doc["kappa"] == min(doc["alpha"] / 4.0, doc["lambda_tilde"] / 4.0)
        assert doc["rho"] == doc["b_norm"] ** 2 * max(1.0, 2.0 / doc["alpha"])
        results.append(f"{name}: lam={doc['lambda']:.6g} kappa={doc['kappa']:.6g}")
    _report(capfd, 8, "gain-formulas-bitwise", True, "; ".join(results))


def test_criterion_9_negative_controls(tmp_path, capfd):
    # (a) sine-Gordon with gamma at twice the feasibility threshold
    # defaults L = pi, xi = 2: lambda1 = (pi/L)^2 = 1,
    # epsilon = min(xi/4, lambda1/(2 xi)) = 0.25, threshold epsilon/(2 lambda1)
    lambda1 = 1.0
    epsilon = min(2.0 / 4.0, lambda1 / (2.0 * 2.0))
    gamma_bad = 2.0 * epsilon / (2.0 * lambda1)
    cfg_a = tmp_path / "stiff.ini"
    cfg_a.write_text(textwrap.dedent(f"""\
        [plant]
        kind = sine_gordon
        n = 40
        gamma = {gamma_bad}

        [forwarding]
        dt_quad = 0.5
        tau_max = 40

        [verify]
        funceq_samples = 1
        duality_pairs = 1
        """))
    out_a = tmp_path / "a"
    with pytest.warns(UserWarning):
        code_a = cli.main(["verify", "--config", str(cfg_a), "--out", str(out_a)])
    doc_a = json.loads((out_a / "verify.json").read_text())

    # (b) benchmark whose output rows are linearly dependent
    cfg_b = tmp_path / "rankdef.ini"
    cfg_b.write_text(textwrap.dedent("""\
        [plant]
        kind = linear_benchmark
        dim = 12
        alpha = 0.8
        seed = 1
        dim_out = 2
        rank_deficient = true

        [forwarding]
        dt_quad = 0.01

        [verify]
        funceq_samples = 1
        duality_pairs = 1
        """))
    out_b = tmp_path / "b"
    code_b = cli.main(["verify", "--config", str(cfg_b), "--out", str(out_b)])
    doc_b = json.loads((out_b / "verify.json").read_text())

    lam_b = doc_b["checks"]["range_condition"]["value"]
    ok = (code_a == 1 and doc_a["checks"]["monotonicity"]["pass"] is False
          and code_b == 1 and doc_b["checks"]["range_condition"]["pass"] is False
          and lam_b <= 1e-12)
    _report(capfd, 9, "negative-controls", ok,
            f"gamma={gamma_bad} exit={code_a} monotonicity_fail; "
            f"rank-deficient exit={code_b} lambda={lam_b:.1e}")
    assert code_a == 1
    assert doc_a["overall"] is False
    assert doc_a["checks"]["monotonicity"]["pass"] is False
    assert code_b == 1
    assert doc_b["checks"]["range_condition"]["pass"] is False
    # lambda = sigma_min^2 of an exactly rank-deficient core: zero to roundoff
    assert lam_b <= 1e-12
