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
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .evolution import Plant
from .forwarding import ForwardingMap, build_forwarding
from .plants import (
    make_linear_benchmark,
    make_scalar_linear,
    make_sine_gordon,
    make_wilson_cowan,
)
from .regulator import (
    Scenario,
    convergence_report,
    find_equilibrium,
    find_equilibrium_recorded,
    simulate,
)
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
    """Typed configuration: plant, forwarding, scenarios, battery, sweep, output."""

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


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(";", ",").split(",") if x.strip())


def _ranged(rule: str, ok, many: bool = False, parse=float):
    """A converter of one value read by ``parse``, or of a comma list of floats
    when ``many``, that refuses any value failing ``ok`` (the message reads
    'must be rule') and an empty list."""
    def convert(text: str):
        values = _floats(text) if many else (parse(text),)
        if not values or not all(ok(v) for v in values):
            raise ValueError(f"must be {rule}" if values else "needs at least 1 value")
        return values if many else values[0]
    return convert


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError("must be one of " + ", ".join(
            configparser.ConfigParser.BOOLEAN_STATES)) from None


def _pair(text: str) -> tuple:
    values = _floats(text)
    if len(values) != 2:
        raise ValueError(f"needs 2 values, got {len(values)}")
    return values


_positive = _ranged("finite and positive", lambda v: math.isfinite(v) and v > 0)
_norm = _ranged("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
_norms = _ranged("finite and >= 0", lambda v: math.isfinite(v) and v >= 0, many=True)
_finites = _ranged("finite", math.isfinite, many=True)
_seed = _ranged("an integer >= 0", lambda v: v >= 0, parse=int)
_count = _ranged("an integer >= 1", lambda v: v >= 1, parse=int)
_grid = _ranged("an integer >= 3", lambda v: v >= 3, parse=int)

# [plant] kind -> (constructor, {key: (constructor keyword, converter)}); the
# constructors own every default
PLANTS = {
    "sine_gordon": (make_sine_gordon, {
        "n": ("N", _grid), "l": ("L", float), "xi": ("xi", float),
        "gamma": ("gamma", float), "window": ("control_window", _pair)}),
    "wilson_cowan": (make_wilson_cowan, {
        "n": ("n", _grid), "alpha_gain": ("alpha_gain", float),
        "kernel": ("kernel", float)}),
    "linear_benchmark": (make_linear_benchmark, {
        "dim": ("n", _count), "alpha": ("alpha", float), "seed": ("seed", _seed),
        "dim_out": ("dim_out", _count), "rank_deficient": ("rank_deficient", _bool)}),
    "scalar_linear": (make_scalar_linear, {
        "a": ("a", float), "b": ("b", float), "c": ("c", float)}),
}
# {key: converter} of every other section; [scenario.*] sections share one
SECTIONS = {
    "forwarding": {"dt_quad": float, "tail_tol": float, "tau_max": float},
    "sweep": {"d_norms": _norms, "y_ref_norms": _finites, "dt": _positive,
              "t_budget": _positive},
    "output": {"dir": str, "seed": _seed},
    "verify": dict.fromkeys(BATTERY_DEFAULTS, _count),
}
SCENARIO = {"y_ref": _finites, "d_norm": _norm, "w0_norm": _norm,
            "t": _positive, "dt": _positive, "t_budget": _positive}
# [scenario.<label>]; the label names the scenario's files
SCENARIO_SECTION = re.compile(r"scenario\.[\w-]+", re.ASCII)


def _convert(section: str, raw, table: dict) -> dict:
    """Each value of ``raw`` converted by ``table``; an unknown key or a value
    its converter refuses raises a ValueError naming ``[section] key``."""
    out = {}
    for key, text in raw.items():
        if key not in table:
            raise ValueError(f"unknown [{section}] key {key!r}")
        try:
            out[key] = table[key](text)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key} = {text!r}: {exc}") from None
    return out


def load_config(
    path: str,
    out_override: Optional[str] = None,
    seed_override: Optional[int] = None,
    workers_override: Optional[int] = None,
) -> RunConfig:
    text = Path(path).read_text()
    # no [DEFAULT] whose keys reach every section: it is an unknown section
    cp = configparser.ConfigParser(default_section="")
    try:  # a repeated section or key, or no section header
        cp.read_string(text, source=path)
        raw = {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    for name in raw:
        if name != "plant" and name not in SECTIONS and not SCENARIO_SECTION.fullmatch(name):
            raise ValueError(f"unknown section [{name}]")
    if "plant" not in raw:
        raise ValueError("config needs a [plant] section")
    plant = raw["plant"]
    kind = plant.pop("kind", "")
    if kind not in PLANTS:
        raise ValueError(f"unknown plant kind {kind!r}")
    keys = PLANTS[kind][1]
    plant = {"kind": kind, **_convert(
        "plant", plant, {key: convert for key, (_, convert) in keys.items()})}
    sections = {name: _convert(name, raw.get(name, {}), table)
                for name, table in SECTIONS.items()}
    scenarios = [{"label": name.split(".", 1)[1], **_convert(name, raw[name], SCENARIO)}
                 for name in sorted(raw) if name.startswith("scenario.")]

    # an override passes the check of the key it replaces
    flags = {"--seed": seed_override, "--workers": workers_override}
    flags = _convert("command line", {f: str(v) for f, v in flags.items() if v is not None},
                     {"--seed": _seed, "--workers": _count})
    output = sections["output"]
    seed = flags.get("--seed", output.get("seed", 0))
    workers = flags.get("--workers", 1)
    digest = hashlib.sha256(f"{text}\nseed={seed}".encode()).hexdigest()[:16]
    return RunConfig(
        plant=plant,
        forwarding=sections["forwarding"],
        scenarios=scenarios,
        verify=sections["verify"],
        sweep=sections["sweep"],
        outdir=Path(out_override or output.get("dir", "out")),
        seed=seed,
        workers=workers,
        sha256=digest,
    )


def build_plant(cfg: RunConfig) -> Plant:
    make, keys = PLANTS[cfg.plant["kind"]]
    return make(**{keys[key][0]: value for key, value in cfg.plant.items()
                   if key != "kind"})


def build_fmap(plant: Plant, cfg: RunConfig) -> ForwardingMap:
    if "dt_quad" not in cfg.forwarding:
        raise ValueError("config needs dt_quad in [forwarding]")
    return build_forwarding(plant, **cfg.forwarding)


# -- artifact helpers ---------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, tag: str, header: Sequence[str], rows) -> None:
    lines = [f"# {tag}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, tag: str, doc: dict) -> None:
    doc = dict(doc)
    doc["meta"] = tag
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n")


def _sample(plant: Plant, rng, norm: float):
    """A seeded smooth state of H-norm ``norm``; None when ``norm`` is 0."""
    if norm == 0:
        return None
    x = smooth_sample(plant, rng, 1.0)
    return x * (norm / plant.space_H.norm(x))


def _scenario_vectors(plant: Plant, sc: dict, seed: int, index: int):
    """Materialize (y_ref, d, w0) from a scenario section."""
    dim_z = plant.space_Z.dim
    vals = sc.get("y_ref", (0.0,))
    if len(vals) == 1:
        y_ref = np.full(dim_z, vals[0])
    elif len(vals) == dim_z:
        y_ref = np.array(vals)
    else:
        raise ValueError(f"[scenario.{sc['label']}] y_ref needs 1 or {dim_z} values, "
                         f"got {len(vals)}")

    rng = np.random.default_rng(seed + 1000 * index)
    d = _sample(plant, rng, sc.get("d_norm", 0.0))
    w0 = _sample(plant, rng, sc.get("w0_norm", 0.0))
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
        "dim_Z": plant.space_Z.dim,
        "plant": plant.name,
    }
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.outdir / "gains.json", cfg.tag(), doc)
    for key in ("plant", "feasible", "alpha", "lambda", "lambda_tilde", "rho", "kappa"):
        print(f"{key} = {doc[key]}")
    return EXIT_OK if fmap.feasible else EXIT_INFEASIBLE


def cmd_simulate(cfg: RunConfig) -> int:
    """Run each scenario; write a trajectory CSV and a report JSON apiece."""
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    if not fmap.feasible:
        print("infeasible configuration: closed loop undefined", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not cfg.scenarios:
        print("no [scenario.*] sections found", file=sys.stderr)
        return EXIT_INFEASIBLE
    # every scenario's vectors, so that a bad one fails before any run
    vectors = [_scenario_vectors(plant, sc, cfg.seed, index)
               for index, sc in enumerate(cfg.scenarios)]
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    any_diverged = False
    for sc, (y_ref, d, w0) in zip(cfg.scenarios, vectors):
        label = sc["label"]
        t, dt = sc.get("t", 10.0), sc.get("dt", 0.05)
        run = simulate(plant, fmap, Scenario(y_ref=y_ref, T=t, dt=dt, d=d, w0=w0))

        doc = {"label": label, "aborted": run.diverged, "steps": len(run) - 1}
        rep = None
        if not run.diverged:
            w_star, z_star, eq = find_equilibrium(
                plant, fmap, d, y_ref, dt=dt, t_budget=sc.get("t_budget", t), run=run)
            rep = convergence_report(run, fmap, w_star, z_star)
            doc.update(
                final_output_error=rep.final_output_error,
                averaged_output_error=rep.averaged_output_error,
                fitted_rate=rep.fitted_rate,
                lyapunov_monotone=rep.lyapunov_monotone,
                max_lyapunov_jump=rep.max_lyapunov_jump,
                equilibrium=asdict(eq),
            )

        space_h, space_z = plant.space_H, plant.space_Z
        header = (
            ["t", "w_norm"]
            + [f"z_{i}" for i in range(space_z.dim)]
            + [f"y_{i}" for i in range(space_z.dim)]
            + [f"u_{i}" for i in range(plant.space_U.dim)]
            + ["V", "eta_norm"]
        )
        if rep is not None:
            header += ["dev_rho", "dev_flat"]
        rows = []
        for k in range(len(run)):
            row = (
                [run.times[k], space_h.norm(run.w[k])]
                + list(run.z[k]) + list(run.y[k]) + list(run.u[k])
                + [run.v[k], space_z.norm(run.z[k] - run.m[k])]
            )
            if rep is not None:
                dw, dz = run.w[k] - w_star, run.z[k] - z_star
                row += [rep.deviation[k],
                        np.sqrt(space_h.inner(dw, dw) + space_z.inner(dz, dz))]
            rows.append(row)
        _write_csv(cfg.outdir / f"scenario_{label}.csv", cfg.tag(), header, rows)
        _write_json(cfg.outdir / f"scenario_{label}_report.json", cfg.tag(), doc)
        state = "DIVERGED" if run.diverged else "ok"
        print(f"scenario {label}: {state}, steps={len(run) - 1}")
        any_diverged = any_diverged or run.diverged

    return EXIT_DIVERGED if any_diverged else EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Run the check battery; exit 0 iff every mandatory check passes."""
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    report = run_battery(plant, fmap, cfg.verify, seed=cfg.seed)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    (cfg.outdir / "verify.json").write_text(report.to_json() + "\n")
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: value={c.value:.6g} "
              f"bound={c.bound:.6g} ({c.direction})")
    print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAIL


# the columns of sweep.csv, in order, and the keys of each row dict
SWEEP_COLUMNS = ("d_norm", "y_ref_norm", "success", "converged", "drift_residual",
                 "output_residual", "fitted_rate", "averaged_output_error", "t_reached")
# a converged cell succeeds when its output residual is at most this
SWEEP_RES_TOL = 1e-4


def _sweep_cell(fmap: Optional[ForwardingMap], d_norm: float, y_norm: float,
                found) -> dict:
    """The row dict of one (||d||, ||y_ref||) grid cell, keyed by SWEEP_COLUMNS.

    ``found`` is the cell's entry of :func:`find_equilibrium_recorded`, or
    the exception its search raised. A numerical or configuration failure
    of the cell gives a NaN row; any other exception is a programming error
    and propagates.
    """
    try:
        if isinstance(found, Exception):
            raise found
        ws, zs, eq, run = found
        rate = float("nan")
        avg = float("nan")
        if eq.converged:
            rep = convergence_report(run, fmap, ws, zs)
            rate = rep.fitted_rate if rep.fitted_rate is not None else float("nan")
            avg = rep.averaged_output_error
        success = eq.converged and eq.output_residual <= SWEEP_RES_TOL
        return dict(zip(SWEEP_COLUMNS, (
            d_norm, y_norm, int(success), int(eq.converged), eq.drift_residual,
            eq.output_residual, rate, avg, eq.t_reached)))
    except (ValueError, ArithmeticError):  # np.linalg.LinAlgError is a ValueError
        return {**dict.fromkeys(SWEEP_COLUMNS, float("nan")),
                "d_norm": d_norm, "y_ref_norm": y_norm, "success": 0, "converged": 0}


def _sweep_rows(cfg: RunConfig, cells: list, built: Optional[tuple] = None) -> list:
    """Row dicts of the grid cells ``cells``, (d_norm, y_norm) pairs, searched
    in lockstep as one block (:func:`find_equilibrium_recorded`).

    ``built`` is the caller's (plant, fmap) of ``cfg``; without it, as in a
    worker process, they are built here. A failure of the build or of the
    whole search makes every cell a NaN row; a cell whose state stops being
    finite is a NaN row of its own.
    """
    dt, t_budget = cfg.sweep.get("dt", 0.05), cfg.sweep.get("t_budget", 100.0)
    fmap = None
    try:
        if built is None:
            plant = build_plant(cfg)
            built = plant, build_fmap(plant, cfg)
        plant, fmap = built
        y_dir = np.ones(plant.space_Z.dim)
        y_dir /= plant.space_Z.norm(y_dir)
        pairs = [(_sample(plant, np.random.default_rng(cfg.seed), d_norm), y_dir * y_norm)
                 for d_norm, y_norm in cells]
        found = find_equilibrium_recorded(plant, fmap, pairs, dt=dt, t_budget=t_budget)
    except (ValueError, ArithmeticError) as exc:
        found = [exc] * len(cells)
    return [_sweep_cell(fmap, d_norm, y_norm, out)
            for (d_norm, y_norm), out in zip(cells, found)]


def cmd_sweep(cfg: RunConfig) -> int:
    """Explore the (||d||, ||y_ref||) grid; per-cell failures never abort.

    The cells step in lockstep as one block; ``workers`` > 1 splits them
    into that many contiguous blocks, one per process.
    """
    plant = build_plant(cfg)
    fmap = build_fmap(plant, cfg)
    if not fmap.feasible:
        print("infeasible configuration: closed loop undefined", file=sys.stderr)
        return EXIT_INFEASIBLE
    cells = [(dn, yn) for dn in cfg.sweep.get("d_norms", (0.0,))
             for yn in cfg.sweep.get("y_ref_norms", (0.0,))]
    cuts = [len(cells) * i // cfg.workers for i in range(cfg.workers + 1)]
    blocks = [cells[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]
    if len(blocks) > 1:
        # imported here: the pool's modules cost about 20 ms of CPU at every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(_sweep_rows, [cfg] * len(blocks), blocks))
    else:
        parts = [_sweep_rows(cfg, block, (plant, fmap)) for block in blocks]
    rows = [row for part in parts for row in part]

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.outdir / "sweep.csv", cfg.tag(), SWEEP_COLUMNS,
               ([row[h] for h in SWEEP_COLUMNS] for row in rows))
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
