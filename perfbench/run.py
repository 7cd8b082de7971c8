"""Benchmark of the forwardreg CLI: gains, simulate, verify and sweep.

Run from the repository root:

    python3 perfbench/run.py --workload sine_gordon --seed 1 --seconds 40 --trace 0

One client drives the subcommands back to back in this single process
(closed loop), each through ``forwardreg.cli.main`` after the import; the
sweep keeps one worker. BLAS is pinned to one thread in this process's
environment (the machine has two shared cores). The seed reaches the
program only as ``--seed``, which seeds the disturbance directions and the
battery samples.

``--trace 0`` measures end to end, with no tracing:

- ``setup_s``: median CPU seconds (user + system) of ``gains`` in a fresh
  interpreter (import, config, plant and forwarding build, ``gains.json``),
  one start before each pass and at least ``SETUP_REPEATS``, calibrated by
  the speed ``SpeedMeter`` saw over the whole run (the probe cannot run in
  the fresh interpreter);
- ``simulate_s``, ``verify_s``, ``sweep_s``: median calibrated CPU seconds
  (see ``SpeedMeter``) of each subcommand in this process, over the passes
  that fit in ``--seconds``;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs one untraced pass and one traced pass of all four
subcommands, checks that both wrote byte-identical artifacts, and reports
the per-layer metrics of ``spans.py`` and the tracing overhead. Spans go to
``.perfbench_out/<run id>/spans.jsonl``.

Every pass is checked against ``reference.json`` (see ``gate.py``). An
operation is one subcommand call or one sweep cell; ``failed`` counts the
operations that exited with an unexpected code, missed the reference, or
(sweep cells) fell back to a NaN row. The last line of standard output is
the result as one JSON object. Exit code 2, with no result, when the
checkout holds no ``src/forwardreg`` or a workload fails its preflight.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = ("linear", "sine_gordon", "wilson_cowan")
COMMANDS = ("simulate", "verify", "sweep")
SETUP_REPEATS = 7
# CPU seconds between two speed probes of SpeedMeter
TICK_EVERY = 0.01
# wall seconds of one speed probe in the fast state of the machine the
# benchmark was defined on (2-vCPU x86_64 Xeon, Python 3.11, OpenBLAS)
TICK_S = 2.5e-4
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GAINS = "import sys; from forwardreg.cli import main; sys.exit(main(sys.argv[1:]))"


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


def config_path(workload: str) -> Path:
    return HERE / "configs" / f"{workload}.ini"


def declared_metrics(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def environment(seed: int, tag: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "config_tag": tag,
    }


def preflight(cli, cfg_file: Path, seed: int) -> None:
    """Refuse configs whose closed loop would diverge silently.

    Every closed-loop dt (scenarios and sweep) must satisfy
    dt * loop_gain < 2 (explicit z-step) and dt * lip_F < 1 (explicit F).
    """
    cfg = cli.load_config(str(cfg_file), seed_override=seed)
    plant = cli.build_plant(cfg)
    fmap = cli.build_fmap(plant, cfg)
    dts = [float(sc.get("dt", 0.05)) for sc in cfg.scenarios]
    dts.append(float(cfg.sweep.get("dt", 0.05)))
    for dt in dts:
        if dt * fmap.loop_gain >= 2.0:
            raise Refused(f"{cfg_file.name}: dt * loop_gain = {dt * fmap.loop_gain:.3g} >= 2")
        if dt * plant.lip_F >= 1.0:
            raise Refused(f"{cfg_file.name}: dt * lip_F = {dt * plant.lip_F:.3g} >= 1")


class SpeedMeter:
    """Calibrated CPU seconds of calls made in this process.

    The vCPUs of a shared machine switch, many times a second, between a
    fast state and one up to ~1.5x slower, as other tenants load the core;
    CPU time keeps that noise. While a measured call runs, a SIGPROF handler
    runs a fixed ~0.3 ms probe every ``TICK_EVERY`` CPU seconds and records
    its wall time, so the probes sample the speed the call itself ran at.
    The probe is a chain of small numpy operations, the per-call overhead
    most of the program's time goes to; of the probes tried (interpreter
    loops, small dense products, strided memory reads) its slowdown tracked
    the program's best. The call's CPU seconds, less the probes' own, are
    scaled by ``TICK_S`` over the probes' mean time. A probe that took over
    3 times the median was preempted and is left out of the mean.
    """

    def __init__(self):
        import numpy as np

        self._x = np.ones(120)
        self.ticks: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        x = self._x
        for _ in range(150):
            x = x * 0.999 + 0.001
        self.ticks.append(time.perf_counter() - t0)

    def measure(self, fn) -> tuple:
        """Run ``fn()``; return its result and its calibrated CPU seconds."""
        first = len(self.ticks)
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_EVERY, TICK_EVERY)
        t0 = time.process_time()
        try:
            out = fn()
        finally:
            cpu = time.process_time() - t0
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        return out, (cpu - sum(self.ticks[first:])) * self.speed(first)

    def speed(self, first: int = 0) -> float:
        """``TICK_S`` over the mean time of the probes from ``first`` on."""
        ticks = self.ticks[first:]
        cut = 3 * statistics.median(ticks)
        return TICK_S / statistics.mean(t for t in ticks if t <= cut)


def run_pass(cli, cfg_file: Path, outroot: Path, seed: int, commands,
             meter: SpeedMeter | None = None) -> tuple:
    """Run the subcommands once; return exit codes and seconds per command.

    The seconds are calibrated by ``meter`` when given, plain CPU seconds
    otherwise.
    """
    codes, secs = {}, {}
    for cmd in commands:
        argv = [cmd, "--config", str(cfg_file), "--out", str(outroot / cmd),
                "--seed", str(seed), "--workers", "1"]
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            if meter is None:
                t0 = time.process_time()
                codes[cmd] = cli.main(argv)
                secs[cmd] = time.process_time() - t0
            else:
                codes[cmd], secs[cmd] = meter.measure(lambda: cli.main(argv))
    return codes, secs


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def start_gains(cfg_file: Path, outroot: Path, seed: int) -> tuple:
    """Run ``gains`` in a fresh interpreter; return its exit code and CPU seconds."""
    argv = [sys.executable, "-c", GAINS, "gains", "--config", str(cfg_file),
            "--out", str(outroot / "gains"), "--seed", str(seed)]
    before = _children_cpu()
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode:
        print(f"gains exited {proc.returncode}: {proc.stderr.decode()[-500:]}",
              file=sys.stderr)
    return proc.returncode, _children_cpu() - before


class Tally:
    """Operations attempted and failed, with the reasons of the failures."""

    def __init__(self, ref: dict, seed: int):
        self.ref, self.seed = ref, seed
        self.attempted = 0
        self.failed = 0

    def add_pass(self, codes: dict, outroot: Path) -> dict:
        summary = gate.summarize(outroot)
        fails = gate.check(self.ref, self.seed, codes, summary)
        for cmd, msgs in fails.items():
            for msg in msgs:
                print(f"FAILED {cmd}: {msg}", file=sys.stderr)
        self.attempted += len(codes)
        self.failed += len(fails)
        if "sweep" in codes:
            self.attempted += len(self.ref["sweep"])
            self.failed += gate.sweep_cell_errors(summary)
        return summary


def artifacts(outdir: Path) -> dict:
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def timed_run(cli, ref, workload, seed, seconds, outroot) -> tuple:
    cfg_file = config_path(workload)
    tally = Tally(ref, seed)
    meter = SpeedMeter()
    setup = []

    def setup_start():
        code, secs = start_gains(cfg_file, outroot, seed)
        setup.append(secs)
        tally.attempted += 1
        tally.failed += code != ref["exit_codes"]["gains"]

    samples = {cmd: [] for cmd in COMMANDS}
    first = None
    t_start = time.perf_counter()
    while True:
        setup_start()
        outdir = outroot / "pass"
        shutil.rmtree(outdir, ignore_errors=True)
        codes, secs = run_pass(cli, cfg_file, outdir, seed, COMMANDS, meter)
        for cmd in COMMANDS:
            samples[cmd].append(secs[cmd])
        summary = tally.add_pass(codes, outdir)
        # every pass must rewrite the same bytes: the program is deterministic
        written = artifacts(outdir)
        if first is None:
            first = written
        elif written != first:
            tally.failed += 1
            print("FAILED determinism: a later pass wrote different artifacts",
                  file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(samples["simulate"]) + 1) / len(samples["simulate"]) > seconds:
            break

    while len(setup) < SETUP_REPEATS:
        setup_start()

    print(f"passes: {len(samples['simulate'])}, setup starts: {len(setup)}, "
          f"speed probes: {len(meter.ticks)}, "
          f"median probe: {statistics.median(meter.ticks) * 1e6:.0f} us")
    for name, got in (("setup", setup), *samples.items()):
        print(f"{name}_s samples: " + ", ".join(f"{s:.4f}" for s in got))
    values = {
        "setup_s": statistics.median(setup) * meter.speed(),
        **{f"{cmd}_s": statistics.median(samples[cmd]) for cmd in COMMANDS},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, tally, summary


def traced_run(cli, ref, workload, seed, outroot, run_id) -> tuple:
    cfg_file = config_path(workload)
    commands = ("gains",) + COMMANDS
    tally = Tally(ref, seed)
    plain, traced = outroot / "untraced", outroot / "traced"
    codes, plain_secs = run_pass(cli, cfg_file, plain, seed, commands)
    tally.add_pass(codes, plain)

    tracer = spans.Tracer(workload, run_id)
    tracer.install()
    try:
        codes, traced_secs = run_pass(cli, cfg_file, traced, seed, commands)
    finally:
        tracer.uninstall()
    summary = tally.add_pass(codes, traced)
    tracer.dump(outroot / "spans.jsonl")

    before, after = artifacts(plain), artifacts(traced)
    mismatch = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    if mismatch:
        tally.failed += 1
        print(f"FAILED tracing changed artifacts: {', '.join(mismatch)}", file=sys.stderr)

    base, total = sum(plain_secs.values()), sum(traced_secs.values())
    print("subcommand  untraced_s  traced_s")
    for cmd in commands:
        print(f"{cmd:10s}  {plain_secs[cmd]:10.4f}  {traced_secs[cmd]:8.4f}")
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = total - base
    values["trace.overhead_share"] = (total - base) / base
    return values, tally, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed passes (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        if not (ROOT / "src" / "forwardreg" / "__init__.py").is_file():
            raise Refused(f"no src/forwardreg under {ROOT}; run from the repository root")
        sys.path.insert(0, str(ROOT / "src"))
        from forwardreg import cli

        ref = gate.load_reference()["workloads"][args.workload]
        preflight(cli, config_path(args.workload), args.seed)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outroot = OUT / run_id
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    if args.trace:
        values, tally, summary = traced_run(cli, ref, args.workload, args.seed,
                                            outroot, run_id)
    else:
        values, tally, summary = timed_run(cli, ref, args.workload, args.seed,
                                           args.seconds, outroot)

    for sub in ("gains", "pass", "untraced", "traced"):
        shutil.rmtree(outroot / sub, ignore_errors=True)
    env = environment(args.seed, summary.get("tag", ""))
    (outroot / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print("environment: " + json.dumps(env))
    declared = declared_metrics(bool(args.trace))
    if set(values) != set(declared):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(declared))}", file=sys.stderr)
        return 2
    if args.trace:
        print("per-layer table (.s is self time; verify checks are inclusive)")
    for name, unit in declared.items():
        print(f"  {name:36s} {values[name]:16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
