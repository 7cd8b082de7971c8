"""Record ``reference.json`` from the checked-out program.

Run from the repository root, on the commit whose outputs are the
reference; this rewrites the whole file, every workload at every seed in
``SEEDS``:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import gate
import run

SEEDS = range(20)


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.ROOT / "src"))
    from forwardreg import __version__, cli

    doc = {"forwardreg_version": __version__, "workloads": {}}
    outroot = run.OUT / "record"
    for workload in run.WORKLOADS:
        cfg_file = run.config_path(workload)
        summaries, codes = {}, None
        for seed in SEEDS:
            shutil.rmtree(outroot, ignore_errors=True)
            run.preflight(cli, cfg_file, seed)
            got, _ = run.run_pass(cli, cfg_file, outroot, seed, ("gains",) + run.COMMANDS)
            if codes is not None and got != codes:
                raise SystemExit(f"{workload} seed {seed}: exit codes {got} != {codes}")
            codes = got
            summaries[seed] = gate.summarize(outroot)
            print(f"{workload} seed {seed}: exit codes {got}", flush=True)
        doc["workloads"][workload] = gate.record(summaries, codes)
    shutil.rmtree(outroot, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
