import tracemalloc

import numpy as np
import pytest

from forwardreg import regulator
from forwardreg.forwarding import StateEvaluation, build_forwarding
from forwardreg.plants import make_linear_benchmark, make_scalar_linear, make_sine_gordon
from forwardreg.regulator import (
    _DIVERGENCE_GUARD,
    _closed_loop,
    Scenario,
    convergence_report,
    feedback,
    find_equilibrium,
    find_equilibrium_recorded,
    simulate,
    simulate_lockstep,
)

from helpers import count_evaluations, make_scalar_plant


@pytest.fixture(scope="module")
def unit_loop():
    plant = make_scalar_linear(2.0, 1.0, 1.0)
    return plant, build_forwarding(plant, dt_quad=0.01)


@pytest.fixture(scope="module")
def fast_loop():
    # b = c = 2 pushes lambda to 4 so kappa = 1/3; handy for short runs
    plant = make_scalar_linear(2.0, 2.0, 2.0)
    return plant, build_forwarding(plant, dt_quad=0.01)


# -- scenario validation ------------------------------------------------------


def test_scenario_rejects_bad_horizon():
    with pytest.raises(ValueError):
        Scenario(y_ref=np.zeros(1), T=0.0, dt=0.1)
    with pytest.raises(ValueError):
        Scenario(y_ref=np.zeros(1), T=1.0, dt=-0.1)
    # a non-finite horizon or step is named, not left to the step count
    for T, dt in ((np.inf, 0.1), (np.nan, 0.1), (1.0, np.inf), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            Scenario(y_ref=np.zeros(1), T=T, dt=dt)


def test_simulate_rejects_mismatched_reference(unit_loop):
    plant, fmap = unit_loop
    with pytest.raises(ValueError):
        simulate(plant, fmap, Scenario(y_ref=np.zeros(2), T=1.0, dt=0.1))


@pytest.fixture(scope="module")
def sine_gordon_loop():
    plant = make_sine_gordon(N=12, gamma=0.05)
    return plant, build_forwarding(plant, dt_quad=0.5, tail_tol=1e-6)


@pytest.mark.parametrize("field, value, message", [
    # a (dim, 2) w0 once ran as a hidden 2-column block and returned column 0
    ("w0", np.zeros((24, 2)), r"w0 must have shape \(24,\), got \(24, 2\)"),
    ("d", np.zeros(5), r"d must have shape \(24,\), got \(5,\)"),
    ("z0", np.zeros(3), r"z0 must have shape \(1,\), got \(3,\)"),
    # a Scenario is one run: a (dim_Z, 2) y_ref is not a block of two
    ("y_ref", np.zeros((1, 2)), r"y_ref must have shape \(1,\), got \(1, 2\)"),
], ids=["w0", "d", "z0", "y_ref"])
def test_simulate_names_a_misshapen_field(sine_gordon_loop, field, value, message):
    plant, fmap = sine_gordon_loop
    sc = Scenario(T=1.0, dt=0.1, **{"y_ref": np.zeros(1), field: value})
    with pytest.raises(ValueError, match=message):
        simulate(plant, fmap, sc)
    with pytest.raises(ValueError, match=message):
        simulate_lockstep(plant, fmap, [sc])


@pytest.mark.parametrize("field", ["w0", "z0", "d", "y_ref"])
def test_simulate_refuses_a_nan_field(unit_loop, field):
    # a NaN d would give a run marked diverged at state 1, not a refusal
    plant, fmap = unit_loop
    sc = Scenario(T=1.0, dt=0.1, **{"y_ref": np.zeros(1), field: np.array([np.nan])})
    with pytest.raises(ValueError, match=rf"^{field} must not be NaN$"):
        simulate(plant, fmap, sc)
    if field in ("d", "y_ref"):
        with pytest.raises(ValueError, match=rf"^{field} must not be NaN$"):
            find_equilibrium(plant, fmap, sc.d, sc.y_ref, dt=0.1, t_budget=1.0)


def test_find_equilibrium_names_a_misshapen_disturbance(sine_gordon_loop):
    plant, fmap = sine_gordon_loop
    with pytest.raises(ValueError, match=r"d must have shape \(24,\), got \(5,\)"):
        find_equilibrium(plant, fmap, np.zeros(5), np.zeros(1), dt=0.1, t_budget=1.0)


@pytest.mark.parametrize("start", [
    lambda plant, fmap: simulate(plant, fmap, Scenario(y_ref=np.zeros(1), T=1.0, dt=0.1)),
    lambda plant, fmap: simulate_lockstep(
        plant, fmap, [Scenario(y_ref=np.zeros(1), T=1.0, dt=0.1)]),
    lambda plant, fmap: find_equilibrium(plant, fmap, None, np.full(1, 0.01), dt=0.5,
                                         t_budget=400.0),
    # at this budget both cells' runs come from their copies, not from simulate
    lambda plant, fmap: find_equilibrium_recorded(
        plant, fmap, [(None, np.full(1, 0.01))] * 2, dt=0.5, t_budget=400.0),
], ids=["simulate", "simulate_lockstep", "find_equilibrium", "find_equilibrium_recorded"])
def test_every_closed_loop_refuses_a_foreign_plant(sine_gordon_loop, monkeypatch, start):
    # another plant of the same family is not the plant fmap was built for;
    # the refusal comes before the loop takes a step
    _, fmap = sine_gordon_loop
    other = make_sine_gordon(N=12, gamma=0.05)
    monkeypatch.setattr(regulator, "_closed_loop", None)
    with pytest.raises(ValueError, match="fmap was built for a different plant"):
        start(other, fmap)


# -- feedback and Lyapunov hand values ----------------------------------------


def test_feedback_hand_value(unit_loop):
    # A = 2, B = C = 1: M(1) = -1/2, so u = (-1/2)(0 - (-1/2)) = -1/4
    plant, fmap = unit_loop
    u = feedback(fmap, np.array([1.0]), np.array([0.0]))
    assert u[0] == pytest.approx(-0.25, abs=1e-12)


def test_feedback_vanishes_on_manifold(unit_loop):
    plant, fmap = unit_loop
    w = np.array([0.7])
    z = StateEvaluation(fmap, w).M()
    u = feedback(fmap, w, z)
    assert abs(u[0]) < 1e-14


def test_feedback_at_origin_is_linear_gain(unit_loop):
    plant, fmap = unit_loop
    zeta = np.array([0.8])
    u = feedback(fmap, np.zeros(1), zeta)
    # u = B*(-C A^{-1})* zeta = (-1/2) * 0.8
    assert u[0] == pytest.approx(-0.4, abs=1e-12)


def test_feedback_requires_feasible_map():
    plant = make_scalar_linear(2.0, 1.0, 0.0)  # C = 0 kills the range condition
    fmap = build_forwarding(plant, dt_quad=0.01)
    assert not fmap.feasible
    with pytest.raises(ValueError):
        feedback(fmap, np.ones(1), np.zeros(1))


def lyapunov_at(fmap, w, z):
    """V at (w, z): the first value of a one-step run started there."""
    sc = Scenario(y_ref=np.zeros(1), T=0.1, dt=0.1, w0=w, z0=z)
    return simulate(fmap.plant, fmap, sc).v[0]


def test_lyapunov_hand_values(unit_loop):
    plant, fmap = unit_loop
    assert lyapunov_at(fmap, np.zeros(1), np.zeros(1)) == 0.0
    w, z = np.array([1.0]), np.array([0.0])
    # derived rho is 1 here: V = 1/2 + (1/2)(1/2)^2
    assert lyapunov_at(fmap, w, z) == pytest.approx(0.625, abs=1e-12)
    # with rho forced to 4: V = 1/2 + 2 (1/2)^2 = 1.0
    fmap_rho4 = build_forwarding(plant, dt_quad=0.01)
    fmap_rho4.rho = 4.0
    assert lyapunov_at(fmap_rho4, w, z) == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_dominates_state_energy(unit_loop):
    plant, fmap = unit_loop
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.standard_normal(1)
        z = rng.standard_normal(1)
        assert lyapunov_at(fmap, w, z) >= 0.5 * w[0] ** 2 - 1e-15


# -- simulate -----------------------------------------------------------------


def test_simulate_origin_stays_put(unit_loop):
    plant, fmap = unit_loop
    r = simulate(plant, fmap, Scenario(y_ref=np.zeros(1), T=2.0, dt=0.1))
    assert not r.diverged
    assert np.all(r.w == 0.0) and np.all(r.z == 0.0)
    assert np.all(r.u == 0.0) and np.all(r.v == 0.0)


def test_simulate_lyapunov_nonincreasing_from_small_ic(unit_loop):
    plant, fmap = unit_loop
    # slowest closed-loop mode is -1/4, so V contracts like e^(-t/2)
    sc = Scenario(y_ref=np.zeros(1), T=60.0, dt=0.05, w0=np.array([0.1]))
    r = simulate(plant, fmap, sc)
    assert np.diff(r.v).max() <= 0.0
    assert r.v[-1] < 1e-8 * r.v[0]


def test_simulate_regulates_scalar_reference(fast_loop):
    plant, fmap = fast_loop
    sc = Scenario(y_ref=np.array([0.3]), T=120.0, dt=0.05, d=np.array([0.05]))
    r = simulate(plant, fmap, sc)
    assert not r.diverged
    assert abs(r.y[-1, 0] - 0.3) < 1e-6


def test_simulate_is_deterministic(fast_loop):
    plant, fmap = fast_loop
    sc = Scenario(y_ref=np.array([0.2]), T=10.0, dt=0.05, w0=np.array([0.4]))
    r1 = simulate(plant, fmap, sc)
    r2 = simulate(plant, fmap, sc)
    assert np.array_equal(r1.w, r2.w) and np.array_equal(r1.z, r2.z)
    assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.v, r2.v)


def test_simulate_divergence_guard_truncates(fast_loop):
    plant, fmap = fast_loop
    # explicit z-step is unstable at this dt; the guard must cut the run
    sc = Scenario(y_ref=np.array([0.3]), T=400.0, dt=1.0)
    r = simulate(plant, fmap, sc)
    assert r.diverged
    assert len(r) < 401


def test_simulate_guard_threshold_respected(unit_loop):
    plant, fmap = unit_loop
    # a start past the guard is cut at once; one inside it runs to the end
    w0 = np.array([1.5 * _DIVERGENCE_GUARD])
    r = simulate(plant, fmap, Scenario(y_ref=np.zeros(1), T=5.0, dt=0.1, w0=w0))
    assert r.diverged and len(r) == 1
    w0 = np.array([0.5 * _DIVERGENCE_GUARD])
    r = simulate(plant, fmap, Scenario(y_ref=np.zeros(1), T=5.0, dt=0.1, w0=w0))
    assert not r.diverged and len(r) == 51


# -- equilibria ---------------------------------------------------------------


def test_find_equilibrium_zero_data(unit_loop):
    plant, fmap = unit_loop
    ws, zs, res = find_equilibrium(plant, fmap, None, np.zeros(1), dt=0.1, t_budget=50.0)
    assert res.converged
    assert abs(ws[0]) < 1e-10 and abs(zs[0]) < 1e-10
    assert res.drift_residual <= 1e-10 and res.output_residual <= 1e-10


def test_find_equilibrium_matches_closed_form(fast_loop):
    # Cw* = y_ref -> w* = 0.15; u* = (a w* - d)/b = 0.125;
    # z* = M(w*) + u*/k0 with M = -w*, k0 = -2 -> z* = -0.2125
    plant, fmap = fast_loop
    ws, zs, res = find_equilibrium(
        plant, fmap, np.array([0.05]), np.array([0.3]), dt=0.05, t_budget=200.0
    )
    assert res.converged
    assert ws[0] == pytest.approx(0.15, abs=1e-8)
    assert zs[0] == pytest.approx(-0.2125, abs=1e-8)
    assert res.drift_residual < 1e-9 and res.output_residual < 1e-9


def test_find_equilibrium_reports_budget_exhaustion(fast_loop):
    plant, fmap = fast_loop
    ws, zs, res = find_equilibrium(
        plant, fmap, None, np.array([0.3]), dt=0.05, t_budget=1.0
    )
    assert not res.converged


def test_find_equilibrium_reports_overflow_stop(fast_loop):
    # dt = 1 makes the explicit z-step unstable: the search must raise at
    # the first check where simulate's guard holds the run diverged, long
    # before the state overflows at about step 1400
    plant, fmap = fast_loop
    y_ref, dt = np.array([0.3]), 1.0
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=20000.0, dt=dt))
    assert run.diverged
    step = -(-(len(run) - 1) // 50) * 50
    with pytest.raises(FloatingPointError, match=f"at step {step} "):
        find_equilibrium(plant, fmap, None, y_ref, dt=dt, t_budget=20000.0)


def test_find_equilibrium_catches_an_overflow_at_its_last_state(unit_loop):
    # 40 steps end between two 50-step checks; the overflowed last state
    # must raise, not come back as an unconverged equilibrium of inf
    plant, fmap = unit_loop
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="not finite at step 40 "):
            find_equilibrium(plant, fmap, np.array([1e308]), np.array([0.3]), dt=0.05,
                             t_budget=2.0)


def test_find_equilibrium_is_the_simulated_tail_mean(fast_loop):
    # both drivers step the same loop: the search's point is the mean of the
    # last 20 states of a run over the horizon the search reached
    plant, fmap = fast_loop
    d, y_ref, dt = np.array([0.05]), np.array([0.3]), 0.05
    ws, zs, res = find_equilibrium(plant, fmap, d, y_ref, dt=dt, t_budget=200.0)
    assert res.converged
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=res.t_reached, dt=dt, d=d))
    assert len(run) == res.iterations + 1
    assert np.all(ws == np.mean(run.w[-20:], axis=0))
    assert np.all(zs == np.mean(run.z[-20:], axis=0))


def test_find_equilibrium_memory_is_constant_in_the_budget():
    # the search records nothing: a 20x longer budget leaves its peak
    # allocation where it was (recording a state a step would add ~4 MB)
    plant = make_linear_benchmark(20, alpha=0.5, seed=0, dim_out=2)
    fmap = build_forwarding(plant, dt_quad=0.05)
    y_ref = np.full(2, 0.1)
    find_equilibrium(plant, fmap, None, y_ref, dt=0.01, t_budget=0.5)  # warm up
    peaks = []
    for t_budget in (10.0, 200.0):
        tracemalloc.start()
        try:
            _, _, res = find_equilibrium(plant, fmap, None, y_ref, dt=0.01,
                                         t_budget=t_budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not res.converged and res.iterations == round(t_budget / 0.01)
    assert abs(peaks[1] - peaks[0]) < 16 * 1024, peaks


# -- lockstep search ------------------------------------------------------------


@pytest.fixture(scope="module")
def wave_loop():
    # converges at step 150 (t = 75) with dt = 0.5
    plant = make_sine_gordon(N=12, gamma=0.05)
    return plant, build_forwarding(plant, dt_quad=1.0, tail_tol=1e-4)


def lockstep_cells(plant, d_norms, y_norms):
    """(d or None, y_ref) cells with one d direction."""
    direction = plant.space_H.sample_sphere(np.random.default_rng(0))
    return [(None if dn == 0 else dn * direction, np.full(plant.space_Z.dim, yn))
            for dn, yn in zip(d_norms, y_norms)]


def assert_runs_close(run, want, rtol):
    assert len(run) == len(want)
    for field in ("w", "z", "m", "u", "y", "v"):
        got, ref = getattr(run, field), getattr(want, field)
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


@pytest.mark.parametrize("t_budget, late", [(300.0, False), (200.0, True)],
                         ids=["recorded_runs", "runs_stepped_on"])
def test_lockstep_search_matches_cell_by_cell(wave_loop, t_budget, late):
    # three cells in one block give each cell's own search and run; with
    # 200 time units a cell's share of copies (133 of 400 states) ends
    # before it converges, so its run steps on from its last copy
    plant, fmap = wave_loop
    cells = lockstep_cells(plant, [0.0, 0.01, 0.02], [0.01, 0.0, 0.02])
    found = find_equilibrium_recorded(plant, fmap, cells, dt=0.5, t_budget=t_budget)
    assert len(found) == 3
    copies = round(t_budget / 0.5) // len(cells)
    for (ws, zs, res, run), (d, y_ref) in zip(found, cells):
        want_w, want_z, want = find_equilibrium(plant, fmap, d, y_ref,
                                                dt=0.5, t_budget=t_budget)
        assert res.converged and (res.converged, res.iterations, res.t_reached) == \
            (want.converged, want.iterations, want.t_reached)
        np.testing.assert_allclose(ws, want_w, rtol=1e-10, atol=1e-10 * np.abs(want_w).max())
        np.testing.assert_allclose(zs, want_z, rtol=1e-10, atol=1e-10 * np.abs(want_z).max())
        for key in ("drift_residual", "output_residual"):
            assert getattr(res, key) == pytest.approx(getattr(want, key), rel=1e-10,
                                                      abs=1e-13)
        sim = simulate(plant, fmap, Scenario(y_ref=y_ref, T=res.t_reached, dt=0.5, d=d))
        assert_runs_close(run, sim, 1e-10)
        assert (res.iterations > copies) == late
        if late:
            # the states after its copies are bitwise a run from its last copy
            rest = simulate(plant, fmap, Scenario(
                y_ref=y_ref, T=res.t_reached - copies * 0.5, dt=0.5, d=d,
                w0=run.w[copies], z0=run.z[copies]))
            assert len(rest) == len(run) - copies
            assert all(np.array_equal(getattr(run, f)[copies + 1:], getattr(rest, f)[1:])
                       for f in ("w", "z", "m", "u", "y", "v"))


def test_lockstep_cell_past_its_copies_costs_its_steps_past_them(wave_loop, monkeypatch):
    # a cell that converges at step k after its n // s copies costs
    # k - n // s + 1 evaluations beyond the search: its last copy's again,
    # then one a step; a run from the origin would cost k + 1
    plant, fmap = wave_loop
    cells = lockstep_cells(plant, [0.0, 0.01, 0.02], [0.01, 0.0, 0.02])
    calls = count_evaluations(monkeypatch)
    counts, iterations = [], []
    for t_budget in (300.0, 200.0):  # 200 and 133 copies a cell
        calls.clear()
        found = find_equilibrium_recorded(plant, fmap, cells, dt=0.5, t_budget=t_budget)
        counts.append(len(calls))
        iterations.append([res.iterations for _, _, res, _ in found])
    ks = iterations[1]
    assert iterations[0] == ks and 400 // 3 < min(ks) and max(ks) <= 600 // 3
    assert counts[1] - counts[0] == sum(k - 400 // 3 + 1 for k in ks)


def test_lockstep_of_no_cells_is_empty(wave_loop):
    plant, fmap = wave_loop
    assert simulate_lockstep(plant, fmap, []) == []
    assert find_equilibrium_recorded(plant, fmap, [], dt=0.5, t_budget=300.0) == []


def test_lockstep_cell_without_disturbance_is_a_zero_disturbance(wave_loop):
    # a None disturbance is filled with zeros where the loop starts, and only
    # there: the cell gives the zero cell's equilibrium and run bitwise
    plant, fmap = wave_loop
    y_ref = np.full(1, 0.01)
    (none,), (zero,) = (find_equilibrium_recorded(plant, fmap, [(d, y_ref)], dt=0.5,
                                                  t_budget=300.0)
                        for d in (None, np.zeros(plant.dim)))
    assert none[2].converged and none[2] == zero[2]
    assert np.array_equal(none[0], zero[0]) and np.array_equal(none[1], zero[1])
    assert all(np.array_equal(getattr(none[3], f), getattr(zero[3], f))
               for f in ("times", "w", "z", "m", "u", "y", "v", "diverged"))


def test_lockstep_column_that_stops_being_finite_leaves_alone(unit_loop):
    # the middle cell's disturbance overflows the state; it leaves the block
    # at the next check, and the other cells run on as if it had not been there
    plant, fmap = unit_loop
    cells = [(np.array([d]), np.array([0.3])) for d in (0.05, 1e308, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        found = find_equilibrium_recorded(plant, fmap, cells, dt=0.05, t_budget=200.0)
    assert isinstance(found[1], FloatingPointError)
    assert "not finite at step 50 " in str(found[1])
    others = find_equilibrium_recorded(plant, fmap, cells[::2], dt=0.05, t_budget=200.0)
    for got, want in zip((found[0], found[2]), others):
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(got[3].w, want[3].w) and np.array_equal(got[3].v, want[3].v)


def test_lockstep_column_that_overflows_by_its_last_state_is_an_error(unit_loop):
    # the budget of 40 steps ends before the first 50-step check: the
    # middle cell's overflowed last state is its error, not a row of inf
    plant, fmap = unit_loop
    cells = [(np.array([d]), np.array([0.3])) for d in (0.05, 1e308, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        found = find_equilibrium_recorded(plant, fmap, cells, dt=0.05, t_budget=2.0)
    assert isinstance(found[1], FloatingPointError)
    assert "not finite at step 40 " in str(found[1])
    for cell in (found[0], found[2]):
        assert not cell[2].converged and np.isfinite(cell[2].drift_residual)


# -- search along a run --------------------------------------------------------


def wave_search(plant, fmap, run=None):
    """The wave loop's search of (0.01 d, 0.01), which converges at step 150."""
    ((d, y_ref),) = lockstep_cells(plant, [0.01], [0.01])
    return find_equilibrium(plant, fmap, d, y_ref, dt=0.5, t_budget=300.0, run=run)


@pytest.mark.parametrize("T, w0_norm", [(100.0, 0.0), (40.0, 0.0), (100.0, 0.3)],
                         ids=["run_past_the_search", "search_past_the_run",
                              "run_off_the_origin"])
def test_find_equilibrium_reading_a_run_is_bitwise_the_search(wave_loop, monkeypatch,
                                                             T, w0_norm):
    # a run of 200 steps holds the search's 150 states, which it only reads;
    # past a run of 80 steps it steps on from the run's last state; a run off
    # the origin shares no state with it and is not read
    plant, fmap = wave_loop
    ((d, y_ref),) = lockstep_cells(plant, [0.01], [0.01])
    w0 = w0_norm * plant.space_H.sample_sphere(np.random.default_rng(3))
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=T, dt=0.5, d=d, w0=w0))
    want = wave_search(plant, fmap)
    assert want[2].converged and want[2].iterations == 150
    calls = count_evaluations(monkeypatch)
    got = wave_search(plant, fmap, run)
    monkeypatch.undo()
    assert got[2] == want[2]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if w0_norm == 0:
        # the states past the run, the run's last state again, and the
        # residual at the tail mean
        assert len(calls) <= max(150 - (len(run) - 1), 0) + 2
    else:
        assert len(calls) >= 150


@pytest.mark.parametrize("field, value", [("dt", 0.25), ("d", None),
                                          ("y_ref", np.full(1, 0.02))])
def test_find_equilibrium_refuses_another_scenarios_run(wave_loop, field, value):
    plant, fmap = wave_loop
    ((d, y_ref),) = lockstep_cells(plant, [0.01], [0.01])
    fields = {"y_ref": y_ref, "T": 10.0, "dt": 0.5, "d": d, field: value}
    run = simulate(plant, fmap, Scenario(**fields))
    with pytest.raises(ValueError, match=f"run is of another scenario: its {field} "):
        wave_search(plant, fmap, run)


# -- lockstep simulation ------------------------------------------------------


def wave_scenarios(plant):
    """Three wave-loop scenarios with their own w0, z0, d, y_ref, dt and T."""
    rng = np.random.default_rng(11)
    space_h, dim_z = plant.space_H, plant.space_Z.dim
    return [
        Scenario(y_ref=np.full(dim_z, 0.01), T=20.0, dt=0.5,
                 w0=0.3 * space_h.sample_sphere(rng)),
        Scenario(y_ref=np.zeros(dim_z), T=12.5, dt=0.25, z0=np.full(dim_z, 0.2),
                 d=0.01 * space_h.sample_sphere(rng)),
        Scenario(y_ref=np.full(dim_z, -0.02), T=30.0, dt=0.5,
                 w0=0.5 * space_h.sample_sphere(rng), z0=np.full(dim_z, -0.1)),
    ]


def test_lockstep_block_matches_each_run(wave_loop):
    # mixed dt and T: each column steps with its own P and leaves at its own
    # horizon, the last one on its own
    plant, fmap = wave_loop
    scenarios = wave_scenarios(plant)
    runs = simulate_lockstep(plant, fmap, scenarios)
    assert [len(r) for r in runs] == [41, 51, 61]
    for run, sc in zip(runs, scenarios):
        want = simulate(plant, fmap, sc)
        assert run.scenario is sc and not run.diverged
        assert np.array_equal(run.times, want.times)
        assert_runs_close(run, want, 1e-12)


def test_lockstep_column_that_diverges_is_cut_alone(fast_loop):
    # dt = 1 makes the explicit z-step unstable: that column is cut where its
    # own run is, and the two others run to their ends
    plant, fmap = fast_loop
    scenarios = [
        Scenario(y_ref=np.array([0.2]), T=10.0, dt=0.05, w0=np.array([0.4])),
        Scenario(y_ref=np.array([0.3]), T=400.0, dt=1.0),
        Scenario(y_ref=np.array([0.3]), T=60.0, dt=0.1, d=np.array([0.05])),
    ]
    runs = simulate_lockstep(plant, fmap, scenarios)
    for run, sc in zip(runs, scenarios):
        want = simulate(plant, fmap, sc)
        assert run.diverged == want.diverged
        assert_runs_close(run, want, 1e-12)
    assert runs[1].diverged and len(runs[1]) < 401
    assert [len(runs[0]), len(runs[2])] == [201, 601]


def test_lockstep_of_one_scenario_is_bitwise_simulate(wave_loop):
    # a block of one column steps as the vector loop, bit for bit
    plant, fmap = wave_loop
    sc = wave_scenarios(plant)[1]
    (run,) = simulate_lockstep(plant, fmap, [sc])
    want = simulate(plant, fmap, sc)
    for name in ("times", "w", "z", "y", "u", "m", "v"):
        assert np.array_equal(getattr(run, name), getattr(want, name)), name
    assert run.diverged == want.diverged
    vector = _closed_loop(plant, fmap, np.zeros(plant.dim), sc.z0, sc.d, sc.y_ref, sc.dt)
    for k, state in zip(range(len(run)), vector):
        for got, ref in zip((run.w, run.z, run.m, run.u, run.y), state):
            assert np.array_equal(got[k], ref)


# -- convergence report -------------------------------------------------------


def test_report_constant_at_equilibrium(fast_loop):
    plant, fmap = fast_loop
    ws, zs, _ = find_equilibrium(
        plant, fmap, None, np.array([0.3]), dt=0.05, t_budget=200.0
    )
    sc = Scenario(y_ref=np.array([0.3]), T=5.0, dt=0.05, w0=ws, z0=zs)
    rep = convergence_report(simulate(plant, fmap, sc), fmap, ws, zs)
    assert rep.fitted_rate is None  # deviation never enters the fit band
    assert rep.averaged_output_error < 1e-9
    assert abs(rep.max_lyapunov_jump) < 1e-12


def test_report_rate_matches_slow_mode(unit_loop):
    # closed-loop modes are -2 and -lambda = -1/4; the band should see -1/4
    plant, fmap = unit_loop
    ws, zs, _ = find_equilibrium(
        plant, fmap, None, np.array([0.2]), dt=0.05, t_budget=400.0
    )
    sc = Scenario(y_ref=np.array([0.2]), T=150.0, dt=0.05)
    rep = convergence_report(simulate(plant, fmap, sc), fmap, ws, zs)
    assert rep.fitted_rate is not None
    assert rep.fitted_rate == pytest.approx(0.25, rel=0.1)
    assert rep.fitted_rate >= fmap.kappa / 2
    assert rep.averaged_output_error < 1e-9
    assert rep.final_output_error < 1e-10


def test_report_average_covers_window_not_whole_run(fast_loop):
    plant, fmap = fast_loop
    sc = Scenario(y_ref=np.array([0.3]), T=60.0, dt=0.05)
    r = simulate(plant, fmap, sc)
    ws, zs, _ = find_equilibrium(plant, fmap, None, np.array([0.3]), dt=0.05, t_budget=200.0)
    rep = convergence_report(r, fmap, ws, zs)
    # the root mean square of the output error over the trailing 1 / kappa = 3
    # time units (60 steps), by the trapezoid rule
    err_sq = (r.y[:, 0] - 0.3) ** 2
    tail = err_sq[-61:]
    tail_avg = np.sqrt(0.05 * (tail.sum() - 0.5 * (tail[0] + tail[-1])) / 3.0)
    assert 1.0 / fmap.kappa == pytest.approx(3.0)
    assert rep.averaged_output_error == pytest.approx(tail_avg, rel=1e-12)
    # the early transient only contaminates the whole-run average
    run_avg = np.sqrt(0.05 * (err_sq.sum() - 0.5 * (err_sq[0] + err_sq[-1])) / 60.0)
    assert rep.averaged_output_error < run_avg


# -- invariants ---------------------------------------------------------------


def test_rho_contraction_between_nearby_runs(unit_loop):
    plant, fmap = unit_loop
    kw = dict(y_ref=np.zeros(1), T=40.0, dt=0.05)
    r1 = simulate(plant, fmap, Scenario(w0=np.array([0.05]), **kw))
    r2 = simulate(plant, fmap, Scenario(w0=np.array([0.08]), z0=np.array([0.01]), **kw))
    e1 = r1.z - r1.m
    e2 = r2.z - r2.m
    dev = np.sqrt((r1.w - r2.w)[:, 0] ** 2 + fmap.rho * (e1 - e2)[:, 0] ** 2)
    bound = 1.05 * dev[0] * np.exp(-fmap.kappa * r1.times)
    assert np.all(dev <= bound)


def test_coordinate_equivalence_two_sided(unit_loop):
    plant, fmap = unit_loop
    ws, zs, _ = find_equilibrium(plant, fmap, None, np.array([0.2]), dt=0.05, t_budget=400.0)
    r = simulate(plant, fmap, Scenario(y_ref=np.array([0.2]), T=150.0, dt=0.05))
    eta_star = zs - StateEvaluation(fmap, ws).M()
    eta = r.z - r.m
    dev_flat = np.sqrt((r.w[:, 0] - ws[0]) ** 2 + (r.z[:, 0] - zs[0]) ** 2)
    dev_rho = np.sqrt(
        (r.w[:, 0] - ws[0]) ** 2 + fmap.rho * (eta[:, 0] - eta_star[0]) ** 2
    )
    mask = dev_rho > 1e-10 * dev_rho[0]
    ratio = dev_flat[mask] / dev_rho[mask]
    assert 0.1 < ratio.min() and ratio.max() < 10.0
    assert ratio.max() / ratio.min() < 10.0


def test_closed_loop_semilinear_scalar_regulates():
    # cubic scalar plant: same loop, nonlinearity handled through M. Coarse
    # quadrature is fine here: the z-integrator pins the fixed-point output
    # at y_ref regardless of the M evaluation error.
    plant = make_scalar_plant(a=2.0, c=0.1)
    fmap = build_forwarding(plant, dt_quad=0.05, tail_tol=1e-6)
    sc = Scenario(y_ref=np.array([0.05]), T=120.0, dt=0.05, d=np.array([0.02]))
    r = simulate(plant, fmap, sc)
    assert not r.diverged
    assert abs(r.y[-1, 0] - 0.05) < 1e-6
