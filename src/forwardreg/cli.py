"""Batch front end: INI configuration, subcommands, CSV/JSON artifacts.

Subcommands: gains, simulate, verify, sweep. Exit codes: 0 pass,
1 verification failure, 2 infeasible or invalid configuration, 3 runtime
divergence. Outputs are deterministic for a fixed config file and seed; every
CSV starts with a comment line recording the config hash and code version.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .evolution import Plant
from .forwarding import ForwardingMap, StateEvaluation, build_forwarding
from .plants import (
    make_linear_benchmark,
    make_scalar_linear,
    make_sine_gordon,
    make_wilson_cowan,
)
from .regulator import Scenario, convergence_report, find_equilibrium, simulate
from .verify import BATTERY_DEFAULTS, run_battery, smooth_sample

__all__ = ["RunConfig", "load_config", "cmd_gains", "cmd_simulate", "cmd_verify",
           "cmd_sweep", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3


# -- configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """Parsed configuration: plant, forwarding, scenarios, toggles, output."""

    plant: dict
    forwarding: dict
    scenarios: list
    verify: dict
    sweep: dict
    outdir: Path
    seed: int
    workers: int
    sha256: str

    def tag(self) -> str:
        return f"config_sha256={self.sha256} version={__version__} seed={self.seed}"


# the keys each section reads, checked by load_config; [plant] keys depend on
# its kind, and [verify] keys are checked against BATTERY_DEFAULTS by cmd_verify
PLANT_KEYS = {
    "sine_gordon": ("kind", "n", "l", "xi", "gamma", "window"),
    "wilson_cowan": ("kind", "n", "alpha_gain", "kernel"),
    "linear_benchmark": ("kind", "dim", "alpha", "seed", "dim_out", "rank_deficient"),
    "scalar_linear": ("kind", "a", "b", "c"),
}
FORWARDING_KEYS = ("dt_quad", "tail_tol", "tau_max", "tau_extra")
SCENARIO_KEYS = ("label", "y_ref", "d_norm", "w0_norm", "t", "dt", "t_budget",
                 "fit_equilibrium", "report_window")
SWEEP_KEYS = ("d_norms", "y_ref_norms", "dt", "t_budget", "res_tol", "workers")
OUTPUT_KEYS = ("dir", "seed")


def _section_dict(cp: configparser.ConfigParser, name: str) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def _check_keys(section: str, keys, known) -> None:
    """Reject the first key of ``section`` that is not in ``known``."""
    for key in keys:
        if key not in known:
            raise ValueError(f"unknown [{section}] key {key!r}")


def load_config(
    path: str,
    out_override: Optional[str] = None,
    seed_override: Optional[int] = None,
    workers_override: Optional[int] = None,
) -> RunConfig:
    text = Path(path).read_text()
    cp = configparser.ConfigParser()
    cp.read_string(text)
    if not cp.has_section("plant"):
        raise ValueError("config needs a [plant] section")
    plant = dict(cp["plant"])
    kind = plant.get("kind", "").strip()
    if kind not in PLANT_KEYS:
        raise ValueError(f"unknown plant kind {kind!r}")
    _check_keys("plant", plant, PLANT_KEYS[kind])
    for name, known in (("forwarding", FORWARDING_KEYS), ("sweep", SWEEP_KEYS),
                        ("output", OUTPUT_KEYS)):
        _check_keys(name, _section_dict(cp, name), known)

    output = _section_dict(cp, "output")
    seed = int(output.get("seed", 0))
    if seed_override is not None:
        seed = seed_override
    outdir = Path(out_override or output.get("dir", "out"))
    workers = int(_section_dict(cp, "sweep").get("workers", 1))
    if workers_override is not None:
        workers = workers_override

    scenarios = []
    for name in sorted(s for s in cp.sections() if s.startswith("scenario")):
        sc = dict(cp[name])
        _check_keys(name, sc, SCENARIO_KEYS)
        sc.setdefault("label", name.split(".", 1)[1] if "." in name else name)
        scenarios.append(sc)

    digest = hashlib.sha256(f"{text}\nseed={seed}".encode()).hexdigest()[:16]
    return RunConfig(
        plant=plant,
        forwarding=_section_dict(cp, "forwarding"),
        scenarios=scenarios,
        verify=_section_dict(cp, "verify"),
        sweep=_section_dict(cp, "sweep"),
        outdir=outdir,
        seed=seed,
        workers=workers,
        sha256=digest,
    )


def _floats(text: str) -> list:
    return [float(x) for x in str(text).replace(";", ",").split(",") if x.strip()]


def build_plant(cfg: RunConfig) -> Plant:
    p = cfg.plant
    kind = p.get("kind", "").strip()
    if kind == "sine_gordon":
        kwargs = dict(
            N=int(p.get("n", 200)),
            L=float(p.get("l", math.pi)),
            xi=float(p.get("xi", 2.0)),
            gamma=float(p.get("gamma", 0.05)),
        )
        if "window" in p:
            lo, hi = _floats(p["window"])
            kwargs["control_window"] = (lo, hi)
        return make_sine_gordon(**kwargs)
    if kind == "wilson_cowan":
        return make_wilson_cowan(
            n=int(p.get("n", 32)),
            alpha_gain=float(p.get("alpha_gain", 0.05)),
            kernel=float(p.get("kernel", 0.1)),
        )
    if kind == "linear_benchmark":
        plant = make_linear_benchmark(
            n=int(p.get("dim", 20)),
            alpha=float(p.get("alpha", 0.5)),
            seed=int(p.get("seed", 0)),
            dim_out=int(p.get("dim_out", 2)),
        )
        if p.get("rank_deficient", "").lower() in ("1", "true", "yes"):
            # negative-control variant: duplicate an output row so CA^-1 B
            # loses rank and the battery must detect lambda = 0
            if plant.C.shape[0] > 1:
                plant.C[-1] = plant.C[0]
            else:
                plant.C[:] = 0.0
        return plant
    if kind == "scalar_linear":
        return make_scalar_linear(
            float(p.get("a", 2.0)), float(p.get("b", 1.0)), float(p.get("c", 1.0))
        )
    raise ValueError(f"unknown plant kind {kind!r}")


def build_fmap(plant: Plant, cfg: RunConfig) -> ForwardingMap:
    f = cfg.forwarding
    if "dt_quad" not in f:
        raise ValueError("config needs dt_quad in [forwarding]")
    kwargs = dict(dt_quad=float(f["dt_quad"]))
    if "tail_tol" in f:
        kwargs["tail_tol"] = float(f["tail_tol"])
    if "tau_max" in f:
        kwargs["tau_max"] = float(f["tau_max"])
    if "tau_extra" in f:
        kwargs["tau_extra"] = float(f["tau_extra"])
    return build_forwarding(plant, **kwargs)


# -- artifact helpers ---------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, tag: str, header: list, rows) -> None:
    lines = [f"# {tag}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, tag: str, doc: dict) -> None:
    doc = dict(doc)
    doc["meta"] = tag
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n")


def _scenario_horizons(sc: dict) -> tuple[float, float, float]:
    """(t, dt, t_budget) of a scenario section, each finite and positive."""
    t, dt = float(sc.get("t", 10.0)), float(sc.get("dt", 0.05))
    t_budget = float(sc.get("t_budget", t))
    for name, value in (("T", t), ("dt", dt), ("t_budget", t_budget)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"scenario {name} must be finite and positive, got {value}")
    return t, dt, t_budget


def _scenario_vectors(plant: Plant, sc: dict, seed: int, index: int):
    """Materialize (y_ref, d, w0) from a scenario section."""
    dim_z = plant.space_Z.dim
    vals = _floats(sc.get("y_ref", "0"))
    if len(vals) == 1:
        y_ref = np.full(dim_z, vals[0])
    elif len(vals) == dim_z:
        y_ref = np.array(vals)
    else:
        raise ValueError(f"y_ref needs 1 or {dim_z} values, got {len(vals)}")

    rng = np.random.default_rng(seed + 1000 * index)
    d = None
    d_norm = float(sc.get("d_norm", 0.0))
    if d_norm > 0:
        d = smooth_sample(plant, rng, 1.0)
        d = d * (d_norm / plant.space_H.norm(d))
    w0 = None
    w0_norm = float(sc.get("w0_norm", 0.0))
    if w0_norm > 0:
        w0 = smooth_sample(plant, rng, 1.0)
        w0 = w0 * (w0_norm / plant.space_H.norm(w0))
    return y_ref, d, w0


# -- subcommands ---------------------------------------------------------------


def cmd_gains(cfg: RunConfig) -> int:
    """Emit the design constants and their inputs; exit 2 when infeasible."""
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    doc = {
        "alpha": plant.alpha_cert,
        "lambda": fmap.lam,
        "lambda_tilde": fmap.lam_tilde,
        "rho": fmap.rho,
        "kappa": fmap.kappa,
        "feasible": fmap.feasible,
        "b_norm": fmap.b_norm,
        "ca_inv_norm": fmap.ca_inv_norm,
        "loop_gain": fmap.loop_gain,
        "dim_Z": fmap.dim_Z,
        "plant": plant.name,
    }
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.outdir / "gains.json", cfg.tag(), doc)
    for key in ("plant", "feasible", "alpha", "lambda", "lambda_tilde", "rho", "kappa"):
        print(f"{key} = {doc[key]}")
    return EXIT_OK if fmap.feasible else EXIT_INFEASIBLE


def cmd_simulate(cfg: RunConfig) -> int:
    """Run each scenario; write a trajectory CSV and a report JSON apiece."""
    # every scenario's horizons are checked before the first one runs
    horizons = [_scenario_horizons(sc) for sc in cfg.scenarios]
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    if not fmap.feasible:
        print("infeasible configuration: closed loop undefined", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not cfg.scenarios:
        print("no [scenario.*] sections found", file=sys.stderr)
        return EXIT_INFEASIBLE
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    any_diverged = False
    for index, (sc, (t, dt, t_budget)) in enumerate(zip(cfg.scenarios, horizons)):
        label = sc.get("label", str(index))
        y_ref, d, w0 = _scenario_vectors(plant, sc, cfg.seed, index)
        scenario = Scenario(y_ref=y_ref, T=t, dt=dt, d=d, w0=w0)
        run = simulate(plant, fmap, scenario)

        w_star = z_star = None
        eq_doc = None
        if not run.diverged and sc.get("fit_equilibrium", "true").lower() != "false":
            w_star, z_star, eq = find_equilibrium(
                plant, fmap, d, y_ref, dt=dt, t_budget=t_budget
            )
            eq_doc = asdict(eq)

        space_h, space_z = plant.space_H, plant.space_Z
        header = (
            ["t", "w_norm"]
            + [f"z_{i}" for i in range(space_z.dim)]
            + [f"y_{i}" for i in range(space_z.dim)]
            + [f"u_{i}" for i in range(plant.space_U.dim)]
            + ["V", "eta_norm"]
        )
        if w_star is not None:
            header += ["dev_rho", "dev_flat"]
            eta_star = z_star - StateEvaluation(fmap, w_star).M()
        rows = []
        for k in range(len(run)):
            eta = run.z[k] - run.m[k]
            row = (
                [run.times[k], space_h.norm(run.w[k])]
                + list(run.z[k]) + list(run.y[k]) + list(run.u[k])
                + [run.v[k], space_z.norm(eta)]
            )
            if w_star is not None:
                dw = run.w[k] - w_star
                deta = eta - eta_star
                row.append(np.sqrt(space_h.inner(dw, dw)
                                   + fmap.rho * space_z.inner(deta, deta)))
                dz = run.z[k] - z_star
                row.append(np.sqrt(space_h.inner(dw, dw) + space_z.inner(dz, dz)))
            rows.append(row)
        _write_csv(cfg.outdir / f"scenario_{label}.csv", cfg.tag(), header, rows)

        doc = {"label": label, "aborted": run.diverged, "steps": len(run) - 1}
        if w_star is not None:
            window = float(sc.get("report_window", 1.0 / fmap.kappa))
            rep = convergence_report(run, fmap, w_star, z_star, window=window)
            doc.update(
                final_output_error=rep.final_output_error,
                averaged_output_error=rep.averaged_output_error,
                fitted_rate=rep.fitted_rate,
                lyapunov_monotone=rep.lyapunov_monotone,
                max_lyapunov_jump=rep.max_lyapunov_jump,
                equilibrium=eq_doc,
            )
        _write_json(cfg.outdir / f"scenario_{label}_report.json", cfg.tag(), doc)
        state = "DIVERGED" if run.diverged else "ok"
        print(f"scenario {label}: {state}, steps={len(run) - 1}")
        any_diverged = any_diverged or run.diverged

    return EXIT_DIVERGED if any_diverged else EXIT_OK


def _parse_verify_config(cfg: RunConfig) -> dict:
    """Type each [verify] value like its battery default; unknown keys fail."""
    _check_keys("verify", cfg.verify, BATTERY_DEFAULTS)
    out = {}
    for key, raw in cfg.verify.items():
        kind = type(BATTERY_DEFAULTS[key])
        out[key] = tuple(_floats(raw)) if kind is tuple else kind(raw)
    out.setdefault("seed", cfg.seed)
    return out


def cmd_verify(cfg: RunConfig) -> int:
    """Run the check battery; exit 0 iff every mandatory check passes."""
    battery_cfg = _parse_verify_config(cfg)
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    report = run_battery(plant, fmap, battery_cfg)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    (cfg.outdir / "verify.json").write_text(report.to_json() + "\n")
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: value={c.value:.6g} "
              f"bound={c.bound:.6g} ({c.direction})")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


def _sweep_cell(args):
    """One (||d||, ||y_ref||) grid cell as a row dict.

    A numerical or configuration failure of the cell gives a NaN row; any
    other exception is a programming error and propagates.
    """
    plant_cfg, fwd_cfg, d_norm, y_norm, seed, dt, t_budget, res_tol = args
    cfg = RunConfig(
        plant=plant_cfg, forwarding=fwd_cfg, scenarios=[], verify={}, sweep={},
        outdir=Path("."), seed=seed, workers=1, sha256="",
    )
    try:
        plant = build_plant(cfg)
        fmap = build_fmap(plant, cfg)
        dim_z = plant.space_Z.dim
        rng = np.random.default_rng(seed)
        y_dir = np.ones(dim_z)
        y_dir /= plant.space_Z.norm(y_dir)
        y_ref = y_norm * y_dir
        d = None
        if d_norm > 0:
            d = smooth_sample(plant, rng, 1.0)
            d = d * (d_norm / plant.space_H.norm(d))
        ws, zs, eq = find_equilibrium(plant, fmap, d, y_ref, dt=dt, t_budget=t_budget)
        rate = float("nan")
        avg = float("nan")
        if eq.converged:
            sc = Scenario(y_ref=y_ref, T=eq.t_reached, dt=dt, d=d)
            run = simulate(plant, fmap, sc)
            rep = convergence_report(run, fmap, ws, zs, window=1.0 / fmap.kappa)
            rate = rep.fitted_rate if rep.fitted_rate is not None else float("nan")
            avg = rep.averaged_output_error
        success = eq.converged and eq.output_residual <= res_tol
        return {
            "d_norm": d_norm, "y_ref_norm": y_norm, "success": int(success),
            "converged": int(eq.converged), "drift_residual": eq.drift_residual,
            "output_residual": eq.output_residual, "fitted_rate": rate,
            "averaged_output_error": avg, "t_reached": eq.t_reached,
        }
    except (ValueError, ArithmeticError):  # np.linalg.LinAlgError is a ValueError
        return {
            "d_norm": d_norm, "y_ref_norm": y_norm, "success": 0, "converged": 0,
            "drift_residual": float("nan"), "output_residual": float("nan"),
            "fitted_rate": float("nan"), "averaged_output_error": float("nan"),
            "t_reached": float("nan"),
        }


def cmd_sweep(cfg: RunConfig) -> int:
    """Explore the (||d||, ||y_ref||) grid; per-cell failures never abort."""
    sweep = cfg.sweep
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    if not fmap.feasible:
        print("infeasible configuration: closed loop undefined", file=sys.stderr)
        return EXIT_INFEASIBLE
    d_norms = _floats(sweep.get("d_norms", "0"))
    y_norms = _floats(sweep.get("y_ref_norms", "0"))
    dt = float(sweep.get("dt", 0.05))
    t_budget = float(sweep.get("t_budget", 100.0))
    res_tol = float(sweep.get("res_tol", 1e-4))
    # the horizon rule of every cell's search, applied before any cell runs
    Scenario(y_ref=np.zeros(1), T=t_budget, dt=dt)

    jobs = [
        (cfg.plant, cfg.forwarding, dn, yn, cfg.seed, dt, t_budget, res_tol)
        for dn in d_norms for yn in y_norms
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(j) for j in jobs]

    header = ["d_norm", "y_ref_norm", "success", "converged", "drift_residual",
              "output_residual", "fitted_rate", "averaged_output_error", "t_reached"]
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.outdir / "sweep.csv", cfg.tag(), header,
               ([row[h] for h in header] for row in rows))
    n_ok = sum(r["success"] for r in rows)
    print(f"sweep: {n_ok}/{len(rows)} cells succeeded")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="forwardreg",
        description="Robust output regulation of semilinear contraction systems",
    )
    parser.add_argument("command", choices=["gains", "simulate", "verify", "sweep"])
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--workers", type=int, default=None, help="sweep workers")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.out, args.seed, args.workers)
        handler = {
            "gains": cmd_gains,
            "simulate": cmd_simulate,
            "verify": cmd_verify,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
