"""End-to-end tests for the batch front end: config parsing, artifacts, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest

from forwardreg import cli, forwarding, verify
from forwardreg.regulator import Scenario, convergence_report, find_equilibrium, simulate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


SCALAR_INI = """\
    [plant]
    kind = scalar_linear
    a = 2
    b = 1
    c = 1

    [forwarding]
    dt_quad = 0.01

    [scenario.1]
    y_ref = 0.2
    d_norm = 0.05
    t = 150
    dt = 0.05
    t_budget = 400

    [output]
    dir = unused
    seed = 0
    """


# -- config parsing -------------------------------------------------------------


def test_load_config_sections_and_scenarios(tmp_path):
    path = write_config(
        tmp_path,
        """\
        [plant]
        kind = scalar_linear

        [forwarding]
        dt_quad = 0.02

        [scenario.b]
        y_ref = 0.1

        [scenario.a]
        y_ref = 0.2

        [sweep]
        workers = 3

        [output]
        dir = somewhere
        seed = 7
        """,
    )
    cfg = cli.load_config(path)
    assert cfg.plant["kind"] == "scalar_linear"
    assert cfg.forwarding["dt_quad"] == 0.02
    # scenario sections come back sorted by section name, labelled by suffix
    assert [sc["label"] for sc in cfg.scenarios] == ["a", "b"]
    assert cfg.scenarios[0]["y_ref"] == (0.2,)
    assert cfg.seed == 7
    assert cfg.workers == 3
    assert cfg.outdir.name == "somewhere"
    assert re.fullmatch(r"[0-9a-f]{16}", cfg.sha256)


def test_load_config_overrides(tmp_path):
    path = write_config(tmp_path, SCALAR_INI)
    cfg = cli.load_config(path, out_override="elsewhere", seed_override=3,
                          workers_override=5)
    assert cfg.outdir.name == "elsewhere"
    assert cfg.seed == 3
    assert cfg.workers == 5
    # the hash covers the config text plus the effective seed
    assert cfg.sha256 != cli.load_config(path).sha256


def test_load_config_requires_plant_section(tmp_path):
    path = write_config(tmp_path, "[forwarding]\ndt_quad = 0.01\n")
    with pytest.raises(ValueError):
        cli.load_config(path)


def test_main_bad_inputs_exit_2(tmp_path, capsys):
    assert cli.main(["gains", "--config", str(tmp_path / "missing.ini")]) == 2

    bad_kind = write_config(
        tmp_path, "[plant]\nkind = maglev\n\n[forwarding]\ndt_quad = 0.01\n"
    )
    assert cli.main(["gains", "--config", bad_kind, "--out", str(tmp_path / "o")]) == 2

    no_quad = write_config(tmp_path, "[plant]\nkind = scalar_linear\n", name="nq.ini")
    assert cli.main(["gains", "--config", no_quad, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


# section -> (command that reads it, stray key, SCALAR_INI line, its stand-in)
STRAY_KEYS = {
    "forwarding": ("gains", "tail_tl", "dt_quad = 0.01\n",
                   "dt_quad = 0.01\n    tail_tl = 1e-9\n"),
    "scenario.1": ("simulate", "t_bugdet", "t_budget = 400\n", "t_bugdet = 400\n"),
    "sweep": ("sweep", "res_tl", "[output]\n",
              "[sweep]\n    res_tl = 1e-6\n\n    [output]\n"),
    "output": ("gains", "dri", "seed = 0\n", "seed = 0\n    dri = elsewhere\n"),
}


@pytest.mark.parametrize("section", sorted(STRAY_KEYS))
def test_unknown_section_key_exit_2(tmp_path, capsys, section):
    # a misspelt key must not fall back to its default silently
    command, key, old, new = STRAY_KEYS[section]
    assert SCALAR_INI.count(old) == 1
    path = write_config(tmp_path, SCALAR_INI.replace(old, new))
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 2
    assert f"unknown [{section}] key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(cli.PLANTS))
def test_unknown_plant_key_exit_2(tmp_path, capsys, kind):
    # [plant] keys depend on the kind: each kind takes its own keys only
    values = {"window": "0.5, 2", "n": 3}
    known = "".join(f"{key} = {values.get(key, 1)}\n" for key in cli.PLANTS[kind][1])
    head = f"[plant]\nkind = {kind}\n"
    tail = "\n[forwarding]\ndt_quad = 0.05\n"
    cli.load_config(write_config(tmp_path, head + known + tail, name="known.ini"))
    path = write_config(tmp_path, head + "aa = 5.0\n" + tail)
    out = tmp_path / "out"
    assert cli.main(["gains", "--config", path, "--out", str(out)]) == 2
    assert "unknown [plant] key 'aa'" in capsys.readouterr().err
    assert not out.exists()


PLANT_FIELDS = ("A", "B", "C", "K", "S", "alpha_cert", "lip_F", "global_ok")


def same_plant(p, q):
    return all(np.array_equal(getattr(p, f), getattr(q, f)) for f in PLANT_FIELDS)


# (kind, {[plant] key: non-default text}, the constructor keywords they mean)
PLANT_KEY_CASES = [
    ("sine_gordon", {"n": "30"}, {"N": 30}),
    ("sine_gordon", {"l": "3"}, {"L": 3.0}),
    ("sine_gordon", {"xi": "2.5"}, {"xi": 2.5}),
    ("sine_gordon", {"gamma": "0.04"}, {"gamma": 0.04}),
    ("sine_gordon", {"window": "0.5, 2"}, {"control_window": (0.5, 2.0)}),
    ("wilson_cowan", {"n": "16"}, {"n": 16}),
    ("wilson_cowan", {"alpha_gain": "0.3"}, {"alpha_gain": 0.3}),
    ("wilson_cowan", {"kernel": "0.05"}, {"kernel": 0.05}),
    ("linear_benchmark", {"dim": "8"}, {"n": 8}),
    ("linear_benchmark", {"alpha": "0.7"}, {"alpha": 0.7}),
    ("linear_benchmark", {"seed": "3"}, {"seed": 3}),
    ("linear_benchmark", {"dim_out": "1"}, {"dim_out": 1}),
    ("linear_benchmark", {"rank_deficient": "true"}, {"rank_deficient": True}),
    ("linear_benchmark", {"rank_deficient": "yes", "dim_out": "1"},
     {"rank_deficient": True, "dim_out": 1}),
    ("scalar_linear", {"a": "3"}, {"a": 3.0}),
    ("scalar_linear", {"b": "0.5"}, {"b": 0.5}),
    ("scalar_linear", {"c": "2"}, {"c": 2.0}),
]


@pytest.mark.parametrize("kind, keys, kwargs", PLANT_KEY_CASES,
                         ids=[f"{kind}-{'-'.join(keys)}" for kind, keys, _ in PLANT_KEY_CASES])
def test_plant_key_reaches_its_constructor_keyword(tmp_path, kind, keys, kwargs):
    # build_plant is the constructor called with the converted keys, nothing more
    lines = "".join(f"{key} = {text}\n" for key, text in keys.items())
    cfg = cli.load_config(write_config(tmp_path, f"[plant]\nkind = {kind}\n{lines}"))
    make = cli.PLANTS[kind][0]
    plant = cli.build_plant(cfg)
    assert same_plant(plant, make(**kwargs))
    assert not same_plant(plant, make())  # the value is not the default
    if keys.get("rank_deficient"):
        core = plant.C @ np.linalg.solve(plant.A, plant.B)
        assert np.linalg.matrix_rank(core) < plant.C.shape[0]


SWEEP_INI = SCALAR_INI + """
    [sweep]
    d_norms = 0, 0.05
    y_ref_norms = 0, 0.1
    """

SCALAR_PLANT = "kind = scalar_linear\n    a = 2\n    b = 1\n    c = 1\n"
# case -> (command, SWEEP_INI line, its bad stand-in, what the error names,
# extra command-line arguments)
BAD_VALUES = {
    "plant_n": ("gains", SCALAR_PLANT, "kind = sine_gordon\n    n = abc\n", "[plant] n = 'abc'"),
    "sweep_t_budget": ("sweep", "y_ref_norms = 0, 0.1\n",
                       "y_ref_norms = 0, 0.1\n    t_budget = inf\n",
                       "[sweep] t_budget = 'inf': must be finite and positive"),
    "d_norms": ("sweep", "d_norms = 0, 0.05\n", "d_norms = nan\n",
                "[sweep] d_norms = 'nan': must be finite and >= 0"),
    "y_ref_norms": ("sweep", "y_ref_norms = 0, 0.1\n", "y_ref_norms = inf\n",
                    "[sweep] y_ref_norms = 'inf': must be finite"),
    "report_window": ("simulate", "t_budget = 400\n",
                      "t_budget = 400\n    report_window = -3\n",
                      "[scenario.1] report_window = '-3': must be finite and positive"),
    "d_norm": ("simulate", "d_norm = 0.05\n", "d_norm = -0.05\n",
               "[scenario.1] d_norm = '-0.05': must be finite and >= 0"),
    "fit_equilibrium": ("simulate", "t_budget = 400\n",
                        "t_budget = 400\n    fit_equilibrium = maybe\n",
                        "[scenario.1] fit_equilibrium = 'maybe'"),
    "tail_tol": ("simulate", "dt_quad = 0.01\n", "dt_quad = 0.01\n    tail_tol = 0\n",
                 "tail_tol must be finite and positive, got 0.0"),
    "benchmark_dim": ("gains", SCALAR_PLANT, "kind = linear_benchmark\n    dim = 0\n",
                      "[plant] dim = '0': must be an integer >= 1"),
    "benchmark_dim_out_0": ("gains", SCALAR_PLANT,
                            "kind = linear_benchmark\n    dim_out = 0\n",
                            "[plant] dim_out = '0': must be an integer >= 1"),
    "benchmark_dim_out_neg": ("gains", SCALAR_PLANT,
                              "kind = linear_benchmark\n    dim_out = -2\n",
                              "[plant] dim_out = '-2': must be an integer >= 1"),
    "benchmark_seed": ("gains", SCALAR_PLANT, "kind = linear_benchmark\n    seed = -1\n",
                       "[plant] seed = '-1': must be an integer >= 0"),
    "sine_gordon_n": ("gains", SCALAR_PLANT, "kind = sine_gordon\n    n = 2\n",
                      "[plant] n = '2': must be an integer >= 3"),
    "wilson_cowan_n": ("gains", SCALAR_PLANT, "kind = wilson_cowan\n    n = 2\n",
                       "[plant] n = '2': must be an integer >= 3"),
    "output_seed": ("gains", "seed = 0\n", "seed = -1\n",
                    "[output] seed = '-1': must be an integer >= 0"),
    "sweep_workers": ("sweep", "d_norms = 0, 0.05\n", "d_norms = 0, 0.05\n    workers = 0\n",
                      "[sweep] workers = '0': must be an integer >= 1"),
    **{f"res_tol_{name}": ("sweep", "y_ref_norms = 0, 0.1\n",
                           f"y_ref_norms = 0, 0.1\n    res_tol = {value}\n",
                           f"[sweep] res_tol = '{value}': must be finite and positive")
       for name, value in (("nan", "nan"), ("zero", "0"), ("negative", "-1"))},
    "seed_flag": ("gains", "[forwarding]\n", "[forwarding]\n",
                  "[command line] --seed = '-1': must be an integer >= 0", "--seed", "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_invalid_value_exit_2_before_anything_runs(tmp_path, capsys, case):
    # a value outside its range is an invalid config, never a NaN row, a
    # skipped option or a late divergence
    command, old, new, named, *flags = BAD_VALUES[case]
    assert SWEEP_INI.count(old) == 1
    path = write_config(tmp_path, SWEEP_INI.replace(old, new))
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("monotonicity_tol", 1e-3), ("contraction_slack", 0.05), ("funceq_tol", 1e-3),
    ("duality_rtol", 1e-9), ("fd_tol", 1e-3), ("dissipation_dt", 0.05),
])
def test_battery_bound_is_no_config_key(tmp_path, capsys, key, value):
    # the battery's bounds are module constants, so no config can loosen the
    # contract
    assert getattr(verify, key.upper()) == value
    path = write_config(tmp_path, SCALAR_INI + f"\n    [verify]\n    {key} = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"unknown [verify] key {key!r}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind, key, rule", [
    ("scalar_linear", "a", "finite"),
    ("linear_benchmark", "alpha", "finite and positive"),
    ("sine_gordon", "gamma", "finite and positive"),
    ("wilson_cowan", "kernel", "finite"),
])
def test_non_finite_plant_parameter_exit_2(tmp_path, capsys, kind, key, rule):
    # the plant constructor names the parameter; NaN passes a `<= 0` check
    path = write_config(tmp_path, f"[plant]\nkind = {kind}\n{key} = nan\n\n"
                                  "[forwarding]\ndt_quad = 0.01\n")
    out = tmp_path / "out"
    assert cli.main(["gains", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"{key} must be {rule}, got nan" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_readme_config_builds(tmp_path):
    # the README's example config is a working one
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = cli.load_config(write_config(tmp_path, block))
    assert cli.build_fmap(cli.build_plant(cfg), cfg).feasible


CONFIG_FILES = sorted((CONFIG_DIR.parent / "perfbench" / "configs").glob("*.ini")) \
    + sorted(CONFIG_DIR.glob("*.ini"))


@pytest.mark.parametrize("path", CONFIG_FILES,
                         ids=[f"{p.parent.name}/{p.name}" for p in CONFIG_FILES])
def test_config_lint(path):
    # every shipped and benchmark config passes the key, type, range and
    # ladder checks; nothing runs
    verify._battery_config(cli.load_config(str(path)).verify)


def test_package_exports_resolve():
    import forwardreg

    missing = [name for name in forwardreg.__all__ if not hasattr(forwardreg, name)]
    assert not missing
    assert len(set(forwardreg.__all__)) == len(forwardreg.__all__)


# -- gains ----------------------------------------------------------------------


def test_gains_artifact_and_formulas(tmp_path):
    path = write_config(tmp_path, SCALAR_INI)
    out = tmp_path / "out"
    assert cli.main(["gains", "--config", path, "--out", str(out)]) == 0

    doc = json.loads((out / "gains.json").read_text())
    assert doc["feasible"] is True
    assert doc["alpha"] == 2.0
    assert doc["lambda"] == 0.25
    # emitted constants must satisfy the design formulas exactly
    assert doc["lambda_tilde"] == doc["lambda"] / 3.0
    assert doc["kappa"] == min(doc["alpha"] / 4.0, doc["lambda_tilde"] / 4.0)
    assert doc["rho"] == doc["b_norm"] ** 2 * max(1.0, 2.0 / doc["alpha"])
    assert doc["dim_Z"] == 1
    assert "config_sha256=" in doc["meta"]


def test_gains_infeasible_exit_2(tmp_path):
    path = write_config(
        tmp_path,
        """\
        [plant]
        kind = scalar_linear
        a = 2
        b = 1
        c = 0

        [forwarding]
        dt_quad = 0.01
        """,
    )
    out = tmp_path / "out"
    assert cli.main(["gains", "--config", path, "--out", str(out)]) == 2
    doc = json.loads((out / "gains.json").read_text())
    assert doc["feasible"] is False
    assert doc["lambda"] == 0.0


# -- simulate -------------------------------------------------------------------


def test_simulate_artifacts(tmp_path):
    path = write_config(tmp_path, SCALAR_INI)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0

    lines = (out / "scenario_1.csv").read_text().splitlines()
    assert re.fullmatch(r"# config_sha256=[0-9a-f]{16} version=\S+ seed=0", lines[0])
    header = lines[1].split(",")
    assert header == ["t", "w_norm", "z_0", "y_0", "u_0", "V", "eta_norm",
                      "dev_rho", "dev_flat"]
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(150.0)
    assert abs(last[header.index("y_0")] - 0.2) < 1e-6

    rep = json.loads((out / "scenario_1_report.json").read_text())
    assert rep["aborted"] is False
    assert rep["steps"] == 3000
    assert rep["final_output_error"] < 1e-6
    assert rep["equilibrium"]["converged"] is True


def test_simulate_deterministic(tmp_path):
    path = write_config(tmp_path, SCALAR_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "scenario_1.csv").read_bytes() == \
        (out2 / "scenario_1.csv").read_bytes()
    assert (out1 / "scenario_1_report.json").read_bytes() == \
        (out2 / "scenario_1_report.json").read_bytes()


def test_simulate_divergence_exit_3(tmp_path, capsys):
    # b = c = 2 makes the integrator feedback stiff; dt = 1.0 is far beyond
    # the explicit z-step stability limit, so the run must abort with code 3
    path = write_config(
        tmp_path,
        """\
        [plant]
        kind = scalar_linear
        a = 2
        b = 2
        c = 2

        [forwarding]
        dt_quad = 0.01

        [scenario.blowup]
        y_ref = 0.3
        t = 200
        dt = 1.0
        """,
    )
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert "DIVERGED" in capsys.readouterr().out
    rep = json.loads((out / "scenario_blowup_report.json").read_text())
    assert rep["aborted"] is True


@pytest.mark.parametrize("value", ["no", "OFF"])
def test_simulate_fit_equilibrium_off(tmp_path, value):
    # every configparser boolean spelling of false skips the equilibrium fit
    path = write_config(tmp_path, SCALAR_INI.replace(
        "t_budget = 400\n", f"t_budget = 400\n    fit_equilibrium = {value}\n"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert "dev_rho" not in (out / "scenario_1.csv").read_text().splitlines()[1]
    assert "equilibrium" not in json.loads((out / "scenario_1_report.json").read_text())


def test_simulate_no_scenarios_exit_2(tmp_path):
    path = write_config(
        tmp_path, "[plant]\nkind = scalar_linear\n\n[forwarding]\ndt_quad = 0.01\n"
    )
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_simulate_non_finite_horizon_exit_2(tmp_path, capsys):
    # an infinite or NaN horizon is an invalid config, not a divergence
    for value in ("inf", "nan"):
        path = write_config(tmp_path, SCALAR_INI.replace("t = 150", f"t = {value}"))
        out = tmp_path / value
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[scenario.1] t = '{value}': must be finite and positive" in err
        assert not list(out.glob("scenario_*"))


def test_simulate_bad_t_budget_exit_2_before_any_scenario(tmp_path, capsys):
    # the second scenario's search budget is refused before the first runs
    body = SCALAR_INI.replace("t = 150", "t = 1") + """
    [scenario.2]
    y_ref = 0.1
    t = 1
    t_budget = inf
    """
    path = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[scenario.2] t_budget = 'inf': must be finite and positive" in captured.err
    assert "scenario 1" not in captured.out
    assert not list(out.glob("scenario_*"))


def test_simulate_bad_y_ref_length_exit_2_before_any_scenario(tmp_path, capsys):
    # y_ref needs 1 or dim_Z values; dim_Z is known only once the plant is
    # built, and the second scenario's is refused before the first runs
    path = write_config(tmp_path, """\
        [plant]
        kind = linear_benchmark
        dim = 6
        dim_out = 2

        [forwarding]
        dt_quad = 0.05

        [scenario.a]
        y_ref = 0.1, 0.2
        t = 1
        dt = 0.01

        [scenario.b]
        y_ref = 0.1, 0.2, 0.3
        t = 1
        dt = 0.01
        """)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[scenario.b] y_ref needs 1 or 2 values, got 3" in captured.err
    assert "scenario a" not in captured.out
    assert not list(out.glob("scenario_*"))


# -- verify ---------------------------------------------------------------------


def test_verify_scalar_passes(tmp_path, capsys):
    path = write_config(tmp_path, SCALAR_INI)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert "FAIL" not in text

    doc = json.loads((out / "verify.json").read_text())
    assert doc["overall"] is True
    for entry in doc["checks"].values():
        assert entry["pass"] is True


def test_verify_infeasible_plant_exit_1(tmp_path, capsys):
    # stiffness 0.25 exceeds the feasibility threshold for this wave plant,
    # so no contraction certificate exists and the battery must say so
    path = write_config(
        tmp_path,
        """\
        [plant]
        kind = sine_gordon
        n = 30
        gamma = 0.25

        [forwarding]
        dt_quad = 0.5
        tau_max = 40

        [verify]
        funceq_samples = 1
        duality_pairs = 1
        """,
    )
    out = tmp_path / "out"
    with pytest.warns(UserWarning):
        code = cli.main(["verify", "--config", path, "--out", str(out)])
    assert code == 1
    assert "FAIL monotonicity" in capsys.readouterr().out
    doc = json.loads((out / "verify.json").read_text())
    assert doc["overall"] is False
    assert doc["checks"]["monotonicity"]["pass"] is False


def test_verify_rank_deficient_exit_1(tmp_path):
    path = write_config(
        tmp_path,
        """\
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
        """,
    )
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 1
    doc = json.loads((out / "verify.json").read_text())
    assert doc["checks"]["range_condition"]["pass"] is False
    # open-loop structure is untouched, so the contraction check still holds
    assert doc["checks"]["contraction"]["pass"] is True


def test_verify_unknown_key_exit_2(tmp_path, capsys):
    # a misspelt key must not fall back to the default silently
    path = write_config(tmp_path, SCALAR_INI + "\n    [verify]\n    duality_pair = 5\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "duality_pair" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not (out / "verify.json").exists()


def test_verify_zero_sample_count_exit_2(tmp_path, capsys):
    # a check run on no sample must not read as a pass
    path = write_config(tmp_path, SCALAR_INI + "\n    [verify]\n    dissipation_runs = 0\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "dissipation_runs" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not (out / "verify.json").exists()


def test_verify_bad_ladder_exit_2(tmp_path, capsys):
    # an observed order needs two step sizes; refused before any check runs
    path = write_config(tmp_path, SCALAR_INI + "\n    [verify]\n    oracle_dts = 0.01\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "oracle_dts" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not (out / "verify.json").exists()


# -- sweep ----------------------------------------------------------------------


def test_sweep_grid(tmp_path, capsys):
    path = write_config(
        tmp_path,
        """\
        [plant]
        kind = scalar_linear
        a = 2
        b = 1
        c = 1

        [forwarding]
        dt_quad = 0.01

        [sweep]
        d_norms = 0, 0.05
        y_ref_norms = 0, 0.1
        dt = 0.05
        t_budget = 300
        res_tol = 1e-4

        [output]
        seed = 0
        """,
    )
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert "4/4 cells succeeded" in capsys.readouterr().out

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    assert header[:4] == ["d_norm", "y_ref_norm", "success", "converged"]
    assert len(lines) == 2 + 4
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.all(table[:, header.index("success")] == 1.0)
    assert np.all(table[:, header.index("output_residual")] <= 1e-4)
    # every cell of this loop contracts at the slow closed-loop mode
    rates = table[:, header.index("fitted_rate")]
    assert np.all(rates[np.isfinite(rates)] > 0.2)


def test_sweep_parallel_matches_serial(tmp_path):
    body = """\
        [plant]
        kind = scalar_linear

        [forwarding]
        dt_quad = 0.01

        [sweep]
        d_norms = 0, 0.05
        y_ref_norms = 0.1
        dt = 0.05
        t_budget = 200
        """
    path = write_config(tmp_path, body)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert cli.main(["sweep", "--config", path, "--out", str(serial),
                     "--workers", "1"]) == 0
    assert cli.main(["sweep", "--config", path, "--out", str(parallel),
                     "--workers", "2"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


def test_gains_with_singular_A_exit_2(tmp_path, capsys):
    # negative control: a = 0 makes -C A^{-1} undefined; the build says so
    # instead of failing later on infinities
    path = write_config(tmp_path, SCALAR_INI.replace("a = 2", "a = 0").replace(
        "dt_quad = 0.01", "dt_quad = 0.01\n    tau_max = 10"))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="no contraction certificate") as record:
        assert cli.main(["gains", "--config", path, "--out", str(out)]) == 2
    assert [w.category for w in record] == [UserWarning]
    assert "error: A is singular, so -C A^{-1} is undefined" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_horizon_exit_2(tmp_path, capsys):
    # checked before any cell runs, so no grid of NaN rows reads as a result
    for line in ("t_budget = inf", "dt = 0"):
        body = SCALAR_INI + f"""
    [sweep]
    d_norms = 0, 0.05
    y_ref_norms = 0, 0.1
    {line}
    """
        path = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "must be finite and positive" in captured.err
        assert "sweep:" not in captured.out
        assert not (out / "sweep.csv").exists()


def test_sweep_infeasible_exit_2(tmp_path):
    path = write_config(
        tmp_path,
        "[plant]\nkind = scalar_linear\nc = 0\n\n[forwarding]\ndt_quad = 0.01\n",
    )
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_sweep_cell_catches_only_numerical_failures(tmp_path, monkeypatch):
    path = write_config(
        tmp_path, "[plant]\nkind = scalar_linear\n\n[forwarding]\ndt_quad = 0.01\n"
    )
    cfg = cli.load_config(path, str(tmp_path / "out"), None, 1)
    monkeypatch.setattr(cli, "find_equilibrium_recorded",
                        Mock(side_effect=np.linalg.LinAlgError("singular matrix")))
    assert cli.cmd_sweep(cfg) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
    assert row["success"] == 0 and np.isnan(row["drift_residual"])
    # a programming error is not a failed cell
    monkeypatch.setattr(cli, "find_equilibrium_recorded", Mock(side_effect=TypeError("bug")))
    with pytest.raises(TypeError):
        cli.cmd_sweep(cfg)


def test_sweep_cell_that_stops_being_finite_is_a_nan_row_of_its_own(tmp_path):
    # the 1e308 disturbance overflows its cell's state; that cell is a NaN row
    # and the cells stepped with it in one block give their rows as without it
    path = write_config(tmp_path, SCALAR_INI + "\n    [sweep]\n    t_budget = 200\n")
    cfg = cli.load_config(path)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = cli._sweep_rows(cfg, [(0.05, 0.3), (1e308, 0.3), (0.0, 0.3)])
    assert rows[1]["success"] == 0 and np.isnan(rows[1]["drift_residual"])
    assert rows[0]["success"] == 1 and rows[2]["success"] == 1
    assert [rows[0], rows[2]] == cli._sweep_rows(cfg, [(0.05, 0.3), (0.0, 0.3)])


def test_sweep_cell_diverged_search_is_a_nan_row(tmp_path):
    # scalar a = b = c = 2 at dt = 1: the explicit z-step is unstable and the
    # equilibrium search overflows long before its budget
    path = write_config(tmp_path, "[plant]\nkind = scalar_linear\na = 2\nb = 2\nc = 2\n"
                        "[forwarding]\ndt_quad = 0.01\n[sweep]\ndt = 1.0\nt_budget = 20000\n")
    with np.errstate(over="ignore", invalid="ignore"):
        (row,) = cli._sweep_rows(cli.load_config(path), [(0.0, 0.3)])
    assert row["success"] == 0 and row["converged"] == 0
    assert np.isnan(row["drift_residual"]) and np.isnan(row["t_reached"])


# -- each closed-loop state is evaluated once -----------------------------------

# a small nonlinear plant whose search converges at step 150 (t = 75)
NONLINEAR_INI = """\
    [plant]
    kind = sine_gordon
    n = 12
    gamma = 0.05

    [forwarding]
    dt_quad = 1.0
    tail_tol = 1e-4

    [scenario.1]
    y_ref = 0.01
    d_norm = 0.01
    t = 100
    dt = 0.5
    t_budget = 1500

    [sweep]
    dt = 0.5
    t_budget = 1200
    """


def count_evaluations(monkeypatch):
    calls = []
    init = forwarding.StateEvaluation.__init__

    def counted(self, *args, **kwargs):
        calls.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forwarding.StateEvaluation, "__init__", counted)
    return calls


def test_converged_sweep_cell_evaluates_each_state_once(tmp_path, monkeypatch):
    cfg = cli.load_config(write_config(tmp_path, NONLINEAR_INI))
    calls = count_evaluations(monkeypatch)
    (row,) = cli._sweep_rows(cfg, [(0.01, 0.01)])
    monkeypatch.undo()
    assert row["converged"] == 1
    iterations = round(row["t_reached"] / 0.5)
    # states 0..k, plus the map build, the residual at the tail mean and
    # M(w*) in the report; a re-simulation would double the count
    assert len(calls) <= iterations + 4

    # bitwise the row of the old two passes: a search, then a run over
    # [0, t_reached] for the report
    plant = cli.build_plant(cfg)
    fmap = cli.build_fmap(plant, cfg)
    d = cli._sample(plant, np.random.default_rng(cfg.seed), 0.01)
    y_ref = np.array([0.01])
    ws, zs, eq = find_equilibrium(plant, fmap, d, y_ref, dt=0.5, t_budget=1200)
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=eq.t_reached, dt=0.5, d=d))
    rep = convergence_report(run, fmap, ws, zs, window=1.0 / fmap.kappa)
    assert (row["drift_residual"], row["output_residual"], row["t_reached"]) == \
        (eq.drift_residual, eq.output_residual, eq.t_reached)
    assert (row["fitted_rate"], row["averaged_output_error"]) == \
        (rep.fitted_rate, rep.averaged_output_error)


def test_sweep_workers_agree_on_a_nonlinear_sweep(tmp_path):
    # --workers 2 steps two blocks of two cells, --workers 1 one block of
    # four: the columns of the blocks agree to roundoff
    body = NONLINEAR_INI + """
    d_norms = 0, 0.01
    y_ref_norms = 0.01, 0.02
    """
    path = write_config(tmp_path, body)
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main(["sweep", "--config", path, "--out", str(out),
                         "--workers", workers]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        tables.append(np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]]))
    header = lines[1].split(",")
    serial, parallel = tables
    assert serial.shape == (4, len(header))
    assert np.all(serial[:, header.index("converged")] == 1)
    for col in ("d_norm", "y_ref_norm", "success", "converged", "t_reached"):
        assert np.array_equal(serial[:, header.index(col)], parallel[:, header.index(col)])
    for col in ("fitted_rate", "averaged_output_error"):
        np.testing.assert_allclose(parallel[:, header.index(col)],
                                   serial[:, header.index(col)], rtol=1e-12)
    # residuals of converged cells sit at roundoff, where 1e-12 is relative
    # to the states' scale
    for col in ("drift_residual", "output_residual"):
        np.testing.assert_allclose(parallel[:, header.index(col)],
                                   serial[:, header.index(col)], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("t, w0_norm", [(100, 0), (40, 0), (40, 0.02)],
                         ids=["search_inside_horizon", "search_past_horizon",
                              "off_origin"])
def test_scenario_evaluates_each_state_once(tmp_path, monkeypatch, t, w0_norm):
    body = NONLINEAR_INI.replace("t = 100", f"t = {t}\n    w0_norm = {w0_norm}")
    cfg = cli.load_config(write_config(tmp_path, body), str(tmp_path / "out"))
    calls = count_evaluations(monkeypatch)
    assert cli.cmd_simulate(cfg) == 0
    monkeypatch.undo()
    doc = json.loads((tmp_path / "out" / "scenario_1_report.json").read_text())
    n, k = doc["steps"], doc["equilibrium"]["iterations"]
    if w0_norm == 0:
        # states 0..max(n, k), plus the map build, the run's last state when
        # the search steps on past it, the residual and M(w*)
        assert len(calls) <= max(n, k) + 5
    else:
        # a run off the origin shares no state with the search
        assert len(calls) > n + k

    # bitwise the report of the old two passes: the run, then a search of
    # its own from the origin
    plant = cli.build_plant(cfg)
    fmap = cli.build_fmap(plant, cfg)
    y_ref, d, w0 = cli._scenario_vectors(plant, cfg.scenarios[0], cfg.seed, 0)
    run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=t, dt=0.5, d=d, w0=w0))
    ws, zs, eq = find_equilibrium(plant, fmap, d, y_ref, dt=0.5, t_budget=1500)
    rep = convergence_report(run, fmap, ws, zs, window=1.0 / fmap.kappa)
    assert doc["equilibrium"] == dataclasses.asdict(eq)
    for key in ("final_output_error", "averaged_output_error", "fitted_rate",
                "lyapunov_monotone", "max_lyapunov_jump"):
        assert doc[key] == getattr(rep, key), key
    lines = (tmp_path / "out" / "scenario_1.csv").read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    header = lines[1].split(",")
    dev_flat = [np.sqrt(plant.space_H.inner(w - ws, w - ws)
                        + plant.space_Z.inner(z - zs, z - zs))
                for w, z in zip(run.w, run.z)]
    assert np.array_equal(table[:, header.index("dev_rho")], rep.deviation)
    assert np.array_equal(table[:, header.index("dev_flat")], dev_flat)


def test_main_arithmetic_error_exit_3(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, SCALAR_INI)
    monkeypatch.setattr(cli, "cmd_simulate", Mock(
        side_effect=FloatingPointError("equilibrium search diverged at step 50")))
    assert cli.main(["simulate", "--config", path]) == cli.EXIT_DIVERGED
    assert "error: equilibrium search diverged at step 50" in capsys.readouterr().err


# -- shipped configs ------------------------------------------------------------


def test_shipped_linear_config_verifies(tmp_path, capsys):
    cfg = CONFIG_DIR / "linear.ini"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_shipped_negative_config_fails(tmp_path):
    cfg = CONFIG_DIR / "sine_gordon_infeasible.ini"
    with pytest.warns(UserWarning):
        code = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    with pytest.warns(UserWarning):
        assert cli.main(["gains", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_shipped_sine_gordon_config_gains(tmp_path):
    cfg = CONFIG_DIR / "sine_gordon.ini"
    assert cli.main(["gains", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gains.json").read_text())
    assert doc["feasible"] is True and doc["kappa"] > 0


# -- installed entry point ------------------------------------------------------


def test_console_script_smoke(tmp_path):
    path = write_config(tmp_path, SCALAR_INI)
    out = tmp_path / "out"
    # the child imports the same forwardreg as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from forwardreg.cli import main; sys.exit(main(sys.argv[1:]))",
         "gains", "--config", path, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "feasible = True" in proc.stdout
    assert (out / "gains.json").exists()
