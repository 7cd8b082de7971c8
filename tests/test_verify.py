import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from forwardreg import verify
from forwardreg.evolution import Plant
from forwardreg.forwarding import build_forwarding, functional_equation_residual
from forwardreg.plants import make_linear_benchmark, make_scalar_linear, make_sine_gordon
from forwardreg.regulator import Scenario, simulate
from forwardreg.spaces import SpaceSpec
from forwardreg.verify import (
    dense_linear_oracle,
    dissipation_constant,
    fd_check_dM,
    run_battery,
    smooth_sample,
    uniform_coercivity_check,
)

from helpers import make_scalar_plant


def rank_deficient_benchmark(dim=6, alpha=0.8, seed=1):
    """Linear plant whose CA^-1 B is singular (duplicated output row)."""
    return make_linear_benchmark(dim, alpha=alpha, seed=seed, dim_out=2, rank_deficient=True)


# -- dense linear oracle ------------------------------------------------------


def test_oracle_scalar_hand_assembly():
    plant = make_scalar_plant(a=2.0, c=0.0)
    orc = dense_linear_oracle(plant, None, np.array([0.2]))
    assert orc.m_matrix[0, 0] == pytest.approx(-0.5)
    # [w, eta] block triangular form: [[-2, -1/2], [0, -1/4]]
    assert np.allclose(orc.closed_matrix, [[-2.0, -0.5], [0.0, -0.25]])
    assert orc.spectral_abscissa == pytest.approx(-0.25)
    # Cw* = y_ref -> w* = 0.2; u* = 2 w* = 0.4; z* = M w* + u*/k = -0.9
    assert orc.w_star[0] == pytest.approx(0.2)
    assert orc.z_star[0] == pytest.approx(-0.9)


@pytest.mark.parametrize("alpha", [0.5, 0.02])
@pytest.mark.parametrize("dt", [1e-2, 2.5e-3, 1.0])
def test_oracle_expm_agrees_with_scipy(alpha, dt):
    # the oracle's stepper e^{dt A} of the closed loop against scipy's Pade
    # expm, relative to its largest entry: the small entries are differences
    # of large ones, so no expm holds them to a relative 1e-12 one by one
    plant = make_linear_benchmark(20, alpha=alpha, seed=0)
    closed = dense_linear_oracle(plant, None, np.zeros(2)).closed_matrix
    got = verify._expm(dt * closed)
    want = sla.expm(dt * closed)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_oracle_zero_data_origin():
    plant = make_linear_benchmark(5, alpha=0.8, seed=2)
    orc = dense_linear_oracle(plant, None, np.zeros(2))
    assert np.allclose(orc.w_star, 0.0) and np.allclose(orc.z_star, 0.0)


def test_oracle_rejects_nonlinear_plants():
    with pytest.raises(ValueError):
        dense_linear_oracle(make_scalar_plant(a=2.0, c=0.1), None, np.zeros(1))


def test_oracle_refuses_a_singular_loop_by_name():
    plant = rank_deficient_benchmark()
    with pytest.raises(np.linalg.LinAlgError, match="singular closed-loop matrix"):
        dense_linear_oracle(plant, None, np.zeros(2))


def test_oracle_abscissa_negative_on_seeded_benchmarks():
    for seed in range(4):
        plant = make_linear_benchmark(10, alpha=0.6, seed=seed)
        orc = dense_linear_oracle(plant, None, np.zeros(2))
        assert orc.spectral_abscissa < 0.0


def test_oracle_trajectory_matches_simulate_first_order():
    plant = make_scalar_plant(a=2.0, c=0.0)
    fmap = build_forwarding(plant, dt_quad=0.01)
    orc = dense_linear_oracle(plant, np.array([0.1]), np.array([0.2]))
    w0, z0 = np.array([0.5]), np.array([-0.3])
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        sc = Scenario(y_ref=np.array([0.2]), T=1.0, dt=dt, d=np.array([0.1]), w0=w0, z0=z0)
        run = simulate(plant, fmap, sc)
        w_ref, z_ref = orc.trajectory(w0, z0, 1.0, dt)
        errs.append(max(np.abs(run.w - w_ref).max(), np.abs(run.z - z_ref).max()))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 0.9)


# -- fd_check_dM --------------------------------------------------------------


def test_fd_table_second_order_in_eps():
    plant = make_scalar_plant(a=2.0, c=0.1)
    fmap = build_forwarding(plant, dt_quad=0.002, tail_tol=1e-10)
    tab = fd_check_dM(fmap, np.array([0.8]), np.array([1.0]))
    assert tab["eps"] == list(verify.FD_EPS) == [1e-3, 1e-4]
    assert tab["errors"][0] > tab["errors"][1]
    assert all(o > 1.9 for o in tab["orders"])
    assert tab["errors"][1] < 1e-4


def test_fd_table_linear_plant_at_floor():
    plant = make_linear_benchmark(5, alpha=0.8, seed=2)
    fmap = build_forwarding(plant, dt_quad=0.02)
    rng = np.random.default_rng(0)
    tab = fd_check_dM(fmap, rng.standard_normal(5), rng.standard_normal(5))
    assert all(e < 1e-9 for e in tab["errors"])
    # M is linear, so the errors are roundoff and no order is resolved
    assert len(tab["orders"]) == 1 and np.isnan(tab["orders"][0])


def test_fd_order_needs_both_errors_above_the_roundoff_floor(monkeypatch):
    # an order stands only where both of its errors exceed 10 times
    # eps_mach ||M(w)|| / (eps ||dM h||): at eps 1e-9 the quotient is all
    # cancellation, so the order is null while the errors stay as they were
    plant = make_scalar_plant(a=2.0, c=0.1)
    fmap = build_forwarding(plant, dt_quad=0.002, tail_tol=1e-10)
    w, h = np.array([0.8]), np.array([1.0])
    full = fd_check_dM(fmap, w, h)
    assert np.isfinite(full["orders"][0])
    monkeypatch.setattr(verify, "FD_EPS", (1e-3, 1e-9))
    tab = fd_check_dM(fmap, w, h)
    assert tab["errors"][0] == full["errors"][0]
    assert np.isnan(tab["orders"][0])


def test_fd_eps_is_a_decreasing_ladder():
    # fd_check_dM's observed orders need positive, strictly decreasing steps
    eps = verify.FD_EPS
    assert len(eps) >= 2 and all(e > 0 for e in eps)
    assert all(a > b for a, b in zip(eps, eps[1:]))


def test_fd_table_zero_direction():
    plant = make_scalar_plant(a=2.0, c=0.1)
    fmap = build_forwarding(plant, dt_quad=0.01, tail_tol=1e-8)
    tab = fd_check_dM(fmap, np.array([0.5]), np.zeros(1))
    assert all(e == 0.0 for e in tab["errors"])


# -- functional-equation residual under dt_quad refinement ---------------------


def test_ladder_funceq_first_order_in_dt_quad():
    plant = make_scalar_plant(a=2.0, c=0.1)
    w = np.array([0.9])
    levels = (0.04, 0.02, 0.01)
    values = [
        functional_equation_residual(
            build_forwarding(plant, dt_quad=dtq, tail_tol=1e-10), w
        )
        for dtq in levels
    ]
    assert values[0] > values[1] > values[2]
    orders = np.log2(np.array(values[:-1]) / np.array(values[1:]))
    assert all(0.6 < o < 1.4 for o in orders)


def test_ladder_linear_plant_flat_at_floor():
    plant = make_linear_benchmark(5, alpha=0.8, seed=2)
    w = np.ones(5)
    for dtq in (0.04, 0.02, 0.01):
        assert functional_equation_residual(build_forwarding(plant, dt_quad=dtq), w) < 1e-12


# -- sampling and dissipation helpers -----------------------------------------


def test_smooth_sample_respects_radius():
    plant = make_sine_gordon(N=30)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = smooth_sample(plant, rng, 2.0)
        assert plant.space_H.norm(w) <= 2.0 + 1e-12


def test_smooth_sample_damps_rough_modes():
    plant = make_sine_gordon(N=30)
    rng = np.random.default_rng(6)
    raw = plant.space_H.sample_sphere(rng)
    smoothed = smooth_sample(plant, np.random.default_rng(6), 1.0)
    ratio_raw = plant.space_H.norm(plant.A @ raw) / plant.space_H.norm(raw)
    ratio_smooth = plant.space_H.norm(plant.A @ smoothed) / plant.space_H.norm(smoothed)
    assert ratio_smooth < ratio_raw


def test_dissipation_constant_zero_for_calm_linear_loop():
    plant = make_scalar_plant(a=2.0, c=0.0)
    fmap = build_forwarding(plant, dt_quad=0.01)
    c = dissipation_constant(plant, fmap, dt=0.05, T=3.0, n_runs=3, radius=0.5, seed=0)
    assert c == 0.0


def test_dissipation_constant_is_the_defect_maximum_of_each_run():
    # the lockstep fit equals the largest step defect of solo runs of the
    # same samples, divided by dt (c > 0 on this plant)
    plant = make_linear_benchmark(8, 0.6, seed=2, dim_out=1)
    fmap = build_forwarding(plant, dt_quad=0.02)
    dt, T, radius, seed = 0.05, 2.0, 1.0, 4
    c = dissipation_constant(plant, fmap, dt=dt, T=T, n_runs=3, radius=radius, seed=seed)
    rng = np.random.default_rng(seed)
    space_h, space_u, dim_z = plant.space_H, plant.space_U, plant.space_Z.dim
    worst = 0.0
    for _ in range(3):
        w0 = smooth_sample(plant, rng, radius)
        z0 = radius * 0.1 * rng.standard_normal(dim_z)
        run = simulate(plant, fmap, Scenario(y_ref=np.zeros(dim_z), T=T, dt=dt,
                                             w0=w0, z0=z0))
        for k in range(len(run) - 1):
            w, u = run.w[k], run.u[k]
            worst = max(worst, (run.v[k + 1] - run.v[k]) / dt
                        + 0.5 * plant.alpha_cert * space_h.inner(w, w)
                        + 0.5 * fmap.rho * space_u.inner(u, u))
    assert worst > 0.0
    assert c == pytest.approx(worst / dt, rel=1e-10, abs=1e-12)


# -- battery ------------------------------------------------------------------


def test_battery_benchmark_all_pass():
    plant = make_linear_benchmark(20, 0.5, seed=0)
    fmap = build_forwarding(plant, dt_quad=0.01)
    rep = run_battery(plant, fmap)
    assert rep.overall, rep.failures()
    names = {c.name for c in rep.checks}
    assert {"range_condition", "monotonicity", "contraction", "linearized_decay",
            "forwarding_zero", "functional_equation", "dm_duality", "dm_fd",
            "dissipation"} <= names
    assert "oracle_equilibrium" in names  # linear plants get oracle checks


def test_oracle_refuses_a_plant_above_desk_scale():
    plant = make_linear_benchmark(201, alpha=0.8, seed=0)
    with pytest.raises(ValueError, match=r"^oracle covers desk-scale plants only \(dim <= 200\)$"):
        dense_linear_oracle(plant, None, np.zeros(plant.space_Z.dim))


def test_uniform_coercivity_needs_a_sample():
    # on no sample the minimum keeps its start value, inf, which reads as a pass
    plant = make_scalar_linear()
    fmap = build_forwarding(plant, dt_quad=0.01)
    with pytest.raises(ValueError, match="^n_samples must be >= 1$"):
        uniform_coercivity_check(fmap, n_samples=0, radius=1.0)


def test_battery_rejects_unknown_config_key():
    plant = make_scalar_plant(a=2.0, c=0.0)
    fmap = build_forwarding(plant, dt_quad=0.01)
    with pytest.raises(ValueError, match="duality_pair"):
        run_battery(plant, fmap, {"duality_pair": 5})


@pytest.mark.parametrize("key", ["dissipation_runs", "coercivity_samples"])
def test_battery_rejects_zero_sample_count(key):
    # with no sample a sampled check would read its start value as a pass
    plant = make_scalar_linear()
    fmap = build_forwarding(plant, dt_quad=0.01)
    with pytest.raises(ValueError, match=key):
        run_battery(plant, fmap, {key: 0})


@pytest.mark.parametrize("key", ["funceq_samples", "duality_pairs"])
def test_battery_refuses_a_constant_count_as_unknown(key):
    # the functional-equation and duality counts are code (FUNCEQ_SAMPLES,
    # DUALITY_PAIRS), not battery keys, so no config cuts either check to
    # one sample
    assert getattr(verify, key.upper()) == 3
    assert verify.BATTERY_DEFAULTS == {"dissipation_runs": 3, "coercivity_samples": 20}
    plant = make_scalar_linear()
    fmap = build_forwarding(plant, dt_quad=0.01)
    with pytest.raises(ValueError, match=f"unknown battery key.*{key}"):
        run_battery(plant, fmap, {key: 1})


@pytest.mark.parametrize("key, ladder", [
    ("fd_eps", ()),
    ("fd_eps", (1e-4, 1e-3)),
    ("fd_eps", (1e-3, -1e-4)),
    ("oracle_dts", (1e-2,)),
    ("oracle_dts", (5e-3, 1e-2)),
    ("oracle_dts", (1e-2, 0.0)),
])
def test_battery_rejects_bad_ladder_before_any_check(monkeypatch, key, ladder):
    # the ladders are code (FD_EPS, ORACLE_DTS),
    # not battery keys: a config that passes one, good or bad, is refused
    # before any check runs
    plant = make_scalar_linear()
    fmap = build_forwarding(plant, dt_quad=0.01)

    def first_check(*args, **kwargs):
        raise AssertionError("a check ran before the config was refused")

    monkeypatch.setattr(verify, "estimate_alpha", first_check)
    with pytest.raises(ValueError, match=key):
        run_battery(plant, fmap, {key: ladder})


def test_battery_identity_plant_passes():
    # A = I, F = 0, B = C = I: the simplest feasible loop
    dim = 3
    sp = SpaceSpec(dim, np.eye(dim), "H")
    eye = np.eye(dim)
    plant = Plant(
        name="identity",
        space_H=sp, space_U=sp, space_Z=sp,
        A=eye,
        B=eye,
        C=eye,
        alpha_cert=1.0,
        lip_F=0.0,
    )
    fmap = build_forwarding(plant, dt_quad=0.05)
    rep = run_battery(plant, fmap)
    assert rep.overall, rep.failures()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_battery_flags_infeasible_gamma():
    # gamma = 2 epsilon / (2 lambda1) = 0.25 breaks the certificate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plant = make_sine_gordon(N=30, gamma=0.25)
    fmap = build_forwarding(plant, dt_quad=0.5, tau_max=40.0)
    rep = run_battery(plant, fmap)
    assert not rep.overall
    assert "monotonicity" in rep.failures()


def test_battery_oracle_ladder_is_stable_on_a_stiff_loop():
    # loop_gain 324: at the unscaled ORACLE_DTS the dt = 0.01 run diverges
    plant = make_scalar_linear(a=2.0, b=6.0, c=6.0)
    fmap = build_forwarding(plant, dt_quad=0.01)
    rep = run_battery(plant, fmap)
    table = rep.tables["oracle_trajectory"]
    assert max(table["dts"]) * fmap.loop_gain <= 0.5
    assert np.allclose(np.array(table["dts"]) / table["dts"][0], [1.0, 0.5, 0.25])
    assert max(table["errors"]) < 0.1
    assert rep.overall, rep.failures()


def test_battery_reports_a_singular_oracle_as_a_failed_check(monkeypatch):
    # a feasible loop can still be singular to the oracle's 1e-12 test
    def singular(*args):
        raise np.linalg.LinAlgError("singular closed-loop matrix (rank-deficient C A^-1 B)")

    monkeypatch.setattr(verify, "dense_linear_oracle", singular)
    plant = make_scalar_linear()
    rep = run_battery(plant, build_forwarding(plant, dt_quad=0.01))
    check = {c.name: c for c in rep.checks}["oracle_equilibrium"]
    assert not check.passed and np.isnan(check.value)
    assert check.note.startswith("singular closed-loop matrix")
    assert "oracle_trajectory" not in rep.tables


def test_battery_flags_rank_deficiency():
    plant = rank_deficient_benchmark()
    fmap = build_forwarding(plant, dt_quad=0.02)
    assert not fmap.range_ok
    rep = run_battery(plant, fmap)
    assert not rep.overall
    assert "range_condition" in rep.failures()
    # open-loop contraction is still healthy; only the loop checks fail
    by_name = {c.name: c for c in rep.checks}
    assert by_name["contraction"].passed


def test_battery_json_round_trip_and_determinism():
    plant = make_linear_benchmark(8, 0.6, seed=2)
    fmap = build_forwarding(plant, dt_quad=0.02)
    rep1 = run_battery(plant, fmap)
    rep2 = run_battery(plant, fmap)
    assert rep1.to_json() == rep2.to_json()
    doc = json.loads(rep1.to_json())
    assert doc["overall"] == rep1.overall
    assert set(doc["checks"]) == {c.name for c in rep1.checks}
    for entry in doc["checks"].values():
        assert {"value", "bound", "pass"} <= set(entry)


def test_battery_reaches_every_check_the_tracer_wraps(monkeypatch):
    # perfbench/spans.py times each battery check by wrapping its name in
    # verify; a sampler the battery reached through another module's binding
    # would escape it. dissipation_constant is the known gap: the battery's
    # closed loops run through simulate_lockstep.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    called = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in module.VERIFY_CHECKS:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    plant = make_scalar_linear()
    run_battery(plant, build_forwarding(plant, dt_quad=0.01))
    plant = make_sine_gordon(N=12)
    assert plant.global_ok
    counts = dict.fromkeys(verify.BATTERY_DEFAULTS, 1) | {"coercivity_samples": 2}
    run_battery(plant, build_forwarding(plant, dt_quad=1.0), counts)
    assert set(module.VERIFY_CHECKS) - {"dissipation_constant"} <= called
