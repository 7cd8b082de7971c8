"""The benchmark's correctness gate (perfbench/gate.py) passes on every workload.

For each workload at seed 1 this runs perfbench/run.py's preflight and one
untimed pass of gains, simulate, verify and sweep, and holds the artifacts
to perfbench/reference.json as a benchmark run does. A change that moves a
recorded number or a verdict, or turns a sweep cell into a NaN row, fails
here and not only in a benchmark run. Every JSON artifact of the pass must
also be strict RFC 8259 JSON, with no NaN or Infinity token.
"""

import importlib.util
from pathlib import Path

import pytest

from forwardreg import cli
from helpers import load_strict_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = sorted(path.stem for path in (PERFBENCH / "configs").glob("*.ini"))
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module, with perfbench/ on sys.path for its imports."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_pass_meets_its_reference(bench, workload, tmp_path):
    cfg_file = bench.config_path(workload)
    bench.preflight(cli, cfg_file, SEED)
    codes, _ = bench.run_pass(cli, cfg_file, tmp_path, SEED, ("gains",) + bench.COMMANDS)
    gate = bench.gate
    summary = gate.summarize(tmp_path)
    reference = gate.load_reference()["workloads"][workload]
    assert gate.check(reference, SEED, codes, summary) == {}
    assert gate.sweep_cell_errors(summary) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert any(path.name == "verify.json" for path in written)
    for path in written:
        load_strict_json(path)
