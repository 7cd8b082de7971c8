"""Hash every CLI artifact of a checkout, to show that a change moved no byte.

For each ``--seed`` it runs ``gains``, ``simulate``, ``verify``, ``sweep`` and
``sweep --workers 2`` on every config in ``configs/`` and ``perfbench/configs/``
of the checkout, each as its own ``python -m forwardreg.cli`` process with BLAS
on one thread, and prints one JSON map

    {"<config>/<command> --seed <seed>": [exit, stdout sha256, {file: sha256}]}

The second sweep splits its cells into two lockstep blocks, so the map also
covers a second block width.

Each run reads a copy of its config under the same relative name and writes
into a temporary directory, so two checkouts give comparable keys and the
checkout gets no file. With ``--against other.json`` (a map printed before)
it prints the entries that differ instead, and exits 1 if any do.

    python tools/artifact_hashes.py --checkout ../parent --seed 0 --seed 1 > parent.json
    python tools/artifact_hashes.py --seed 0 --seed 1 --against parent.json

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("gains", "simulate", "verify", "sweep", "sweep --workers 2")
CONFIG_DIRS = ("configs", "perfbench/configs")
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hashes(checkout: Path, seeds) -> dict:
    """The map of every (config, command, seed) run of ``checkout``."""
    configs = sorted(str(path.relative_to(checkout))
                     for d in CONFIG_DIRS for path in (checkout / d).glob("*.ini"))
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", **dict.fromkeys(ONE_THREAD, "1")}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for config in configs:
            (root / config).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(checkout / config, root / config)
        for seed in seeds:
            for config in configs:
                for command in COMMANDS:
                    outdir = root / "out"
                    proc = subprocess.run(
                        [sys.executable, "-m", "forwardreg.cli", *command.split(),
                         "--config", config, "--out", "out", "--seed", str(seed)],
                        cwd=root, env=env, capture_output=True)
                    files = ({str(p.relative_to(outdir)): _sha256(p.read_bytes())
                              for p in sorted(outdir.rglob("*")) if p.is_file()}
                             if outdir.exists() else {})
                    shutil.rmtree(outdir, ignore_errors=True)
                    out[f"{config}/{command} --seed {seed}"] = [
                        proc.returncode, _sha256(proc.stdout), files]
    return out


def differences(ours: dict, theirs: dict) -> dict:
    """{key: {"ours": entry, "theirs": entry}} of each key whose entries differ,
    a key on one side only included (its missing entry is None)."""
    return {key: {"ours": ours.get(key), "theirs": theirs.get(key)}
            for key in sorted(set(ours) | set(theirs)) if ours.get(key) != theirs.get(key)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed passed to every run; repeat for several (default: 0)")
    parser.add_argument("--against", type=Path, default=None,
                        help="JSON map to compare with; print the differing entries")
    args = parser.parse_args(argv)

    ours = hashes(args.checkout.resolve(), args.seed or [0])
    if args.against is None:
        print(json.dumps(ours, indent=1, sort_keys=True))
        return 0
    diff = differences(ours, json.loads(args.against.read_text()))
    print(json.dumps(diff, indent=1, sort_keys=True))
    print(f"{len(diff)} of {len(ours)} entries differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
