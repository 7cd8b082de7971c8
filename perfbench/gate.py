"""Correctness gate: compare a pass's artifacts with the recorded reference.

Every seed is held to the seed-independent part of the reference, exactly:
exit codes, the verdict of each ``verify.json`` check, the ``success`` and
``converged`` columns of ``sweep.csv``, which ``sweep.csv`` entries are
finite, and each scenario's equilibrium ``converged`` flag. Its final output
error and equilibrium residuals must stay below an envelope, ``ENVELOPE``
times the recorded maximum and never below ``ATOL``.

Seeds recorded in ``reference.json`` are also held, within ``RTOL`` and
``ATOL``, to their recorded numbers: those report numbers, the last row of
each scenario CSV (the closed-loop state, control and Lyapunov value at the
horizon), every numeric ``sweep.csv`` entry (so a converged cell that is
not re-simulated shows as a NaN ``fitted_rate``) and the value of each
battery check.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REPORT_KEYS = ("final_output_error", "drift_residual", "output_residual")
# room for a reordered floating-point sum, far below any modelling change
RTOL = 1e-6
# converged residuals and errors sit at roundoff (1e-18 to 1e-13); below
# this level a reordered sum may change them by orders of magnitude
ATOL = 1e-10
# battery values near roundoff (duality, FD error, oracle equilibrium
# distance) move more under a reordered sum than trajectory values do
VERIFY_ATOL = 1e-8
# the envelope for unrecorded seeds is this factor above the recorded maxima
ENVELOPE = 10.0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _last_row(path: Path) -> dict:
    lines = path.read_text().splitlines()
    return dict(zip(lines[1].split(","), (float(x) for x in lines[-1].split(","))))


def summarize(outroot: Path) -> dict:
    """The numbers the gate compares, read from one pass's artifacts."""
    summary: dict = {"simulate": {}, "verify": {}, "values": {}, "sweep": [], "tag": ""}
    for path in sorted((outroot / "simulate").glob("scenario_*_report.json")):
        doc = json.loads(path.read_text())
        eq = doc.get("equilibrium") or {}
        label = doc["label"]
        summary["simulate"][label] = {
            "converged": eq.get("converged"),
            "final_output_error": doc.get("final_output_error"),
            "drift_residual": eq.get("drift_residual"),
            "output_residual": eq.get("output_residual"),
            "last_row": _last_row(path.with_name(f"scenario_{label}.csv")),
        }
    verify_json = outroot / "verify" / "verify.json"
    if verify_json.is_file():
        checks = json.loads(verify_json.read_text())["checks"]
        summary["verify"] = {name: c["pass"] for name, c in checks.items()}
        summary["values"] = {name: c["value"] for name, c in checks.items()}
    sweep_csv = outroot / "sweep" / "sweep.csv"
    if sweep_csv.is_file():
        lines = sweep_csv.read_text().splitlines()
        summary["tag"] = lines[0].lstrip("# ")
        summary["sweep"] = [{col: float(x) for col, x in row.items()}
                            for row in csv.DictReader(lines[1:])]
    return summary


def _sweep_columns(summary: dict) -> list:
    return [[r["d_norm"], r["y_ref_norm"], int(r["success"]), int(r["converged"])]
            for r in summary["sweep"]]


def _sweep_finite(summary: dict) -> list:
    """Per sweep row, the sorted names of its finite entries."""
    return [sorted(col for col, x in r.items() if math.isfinite(x))
            for r in summary["sweep"]]


def _differ(got, ref, atol: float) -> bool:
    return got is None or not abs(got - ref) <= RTOL * abs(ref) + atol


def check(ref: dict, seed: int, exit_codes: dict, summary: dict) -> dict:
    """Failures per operation (subcommand name) as lists of messages."""
    fails: dict = {cmd: [] for cmd in exit_codes}
    for cmd, rc in exit_codes.items():
        if rc != ref["exit_codes"][cmd]:
            fails[cmd].append(f"exit {rc}, reference {ref['exit_codes'][cmd]}")
    recorded = ref["seeds"].get(str(seed))

    if "verify" in fails:
        if summary["verify"] != ref["verify"]:
            diff = sorted(k for k in ref["verify"].keys() | summary["verify"].keys()
                          if ref["verify"].get(k) != summary["verify"].get(k))
            fails["verify"].append(f"check verdicts differ: {', '.join(diff)}")
        for name, value in (recorded["verify"] if recorded else {}).items():
            if _differ(summary["values"].get(name), value, VERIFY_ATOL):
                fails["verify"].append(
                    f"{name} value {summary['values'].get(name)} != reference {value}")

    if "sweep" in fails:
        if _sweep_columns(summary) != ref["sweep"]:
            fails["sweep"].append(
                f"success/converged columns {_sweep_columns(summary)} != {ref['sweep']}")
        elif _sweep_finite(summary) != ref["sweep_finite"]:
            fails["sweep"].append(
                f"finite entries {_sweep_finite(summary)} != {ref['sweep_finite']}")
        for i, want in enumerate(recorded["sweep"] if recorded else []):
            got = summary["sweep"][i] if i < len(summary["sweep"]) else {}
            for col, value in want.items():
                if _differ(got.get(col), value, ATOL):
                    fails["sweep"].append(
                        f"row {i}: {col}={got.get(col)} != reference {value}")

    if "simulate" in fails:
        if summary["simulate"].keys() != ref["simulate"].keys():
            fails["simulate"].append("scenario reports differ from the reference set")
        for label, got in summary["simulate"].items():
            env = ref["simulate"].get(label, {})
            if got["converged"] != env.get("converged"):
                fails["simulate"].append(f"{label}: converged={got['converged']}")
            for key in REPORT_KEYS:
                value = got[key]
                if value is None or not math.isfinite(value) or value > env.get(key, -1):
                    fails["simulate"].append(f"{label}: {key}={value} outside envelope")
            want = recorded["simulate"].get(label, {}) if recorded else {}
            for key in REPORT_KEYS:
                if key in want and _differ(got[key], want[key], ATOL):
                    fails["simulate"].append(
                        f"{label}: {key}={got[key]} != reference {want[key]}")
            for col, value in want.get("last_row", {}).items():
                if _differ(got["last_row"].get(col), value, ATOL):
                    fails["simulate"].append(
                        f"{label}: last {col}={got['last_row'].get(col)} != reference {value}")
    return {cmd: msgs for cmd, msgs in fails.items() if msgs}


def sweep_cell_errors(summary: dict) -> int:
    """Sweep rows written by the fallback path (NaN drift residual)."""
    return sum(math.isnan(r["drift_residual"]) for r in summary["sweep"])


def record(summaries: dict, exit_codes: dict) -> dict:
    """Reference for one workload from per-seed summaries of this commit."""
    first = next(iter(summaries.values()))
    ref = {
        "exit_codes": exit_codes,
        "verify": first["verify"],
        "sweep": _sweep_columns(first),
        "sweep_finite": _sweep_finite(first),
        "simulate": {},
        "seeds": {},
    }
    for seed, summary in summaries.items():
        if summary["verify"] != ref["verify"]:
            raise ValueError(f"seed {seed}: verify verdicts depend on the seed")
        if _sweep_columns(summary) != ref["sweep"]:
            raise ValueError(f"seed {seed}: sweep columns depend on the seed")
        if _sweep_finite(summary) != ref["sweep_finite"]:
            raise ValueError(f"seed {seed}: finite sweep entries depend on the seed")
        if any(got["converged"] != first["simulate"][label]["converged"]
               for label, got in summary["simulate"].items()):
            raise ValueError(f"seed {seed}: equilibrium convergence depends on the seed")
        ref["seeds"][str(seed)] = {
            "simulate": {
                label: {k: got[k] for k in REPORT_KEYS + ("last_row",)}
                for label, got in summary["simulate"].items()},
            "verify": summary["values"],
            "sweep": [{col: x for col, x in r.items() if math.isfinite(x)}
                      for r in summary["sweep"]],
        }
    for label, got in first["simulate"].items():
        env = {"converged": got["converged"]}
        for key in REPORT_KEYS:
            env[key] = max(ENVELOPE * max(s["simulate"][label][key]
                                          for s in summaries.values()), ATOL)
        ref["simulate"][label] = env
    return ref
