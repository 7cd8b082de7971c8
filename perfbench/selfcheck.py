"""Self-check of the benchmark definition; takes a few seconds.

Run from the repository root:

    python3 perfbench/selfcheck.py

Checks that the manifest keeps its documented limits, that every workload
has a config and a reference, and that two seeds give different inputs
(disturbance direction, config tag). Exits 1 and names the problem when a
check fails. That the emitted metric names are exactly those BENCHMARK.json
declares is checked by ``run.py`` itself on every run: the names and units
come from the manifest alone, and no seed enters them.
"""

from __future__ import annotations

import json
import re
import sys

import gate
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def problems() -> list:
    out = []
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for m in manifest["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            out.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in manifest["end_to_end"]):
        out.append("setup_s must be declared with the largest bound")
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        if not NAME.match(m["name"]):
            out.append(f"bad metric name {m['name']!r}")
    reference = gate.load_reference()["workloads"]
    for w in manifest["workloads"]:
        if w["name"] not in run.WORKLOADS:
            out.append(f"workload {w['name']} unknown to run.py")
        if not run.config_path(w["name"]).is_file():
            out.append(f"workload {w['name']} has no config")
        if w["name"] not in reference:
            out.append(f"workload {w['name']} has no reference")

    sys.path.insert(0, str(run.ROOT / "src"))
    from forwardreg import cli

    for name in run.WORKLOADS:
        inputs = []
        for seed in (0, 1):
            cfg = cli.load_config(str(run.config_path(name)), seed_override=seed)
            plant = cli.build_plant(cfg)
            _, d, _ = cli._scenario_vectors(plant, cfg.scenarios[0], cfg.seed, 0)
            inputs.append((cfg.tag(), d))
        (tag0, d0), (tag1, d1) = inputs
        if tag0 == tag1 or (d0 is not None and (d0 == d1).all()):
            out.append(f"{name}: seeds 0 and 1 give the same inputs")
    return out


def main() -> int:
    found = problems()
    for msg in found:
        print(f"selfcheck: {msg}", file=sys.stderr)
    print("selfcheck: " + ("FAIL" if found else "ok"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
