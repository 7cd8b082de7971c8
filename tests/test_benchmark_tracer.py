"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps.

The tracer wraps package functions by name from outside the package, and
plant.F/plant.dF on the plant cli.build_plant returns, so a rename or a Plant
change in the package would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from forwardreg import cli, forwarding

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_spans().Tracer("test", "0")
    originals = {}
    try:
        # a wrapped name missing from the package raises here
        tracer.install()
        for obj, attr, orig in tracer._undo:
            originals.setdefault((obj, attr), orig)
        assert originals
        for (obj, attr), orig in originals.items():
            assert obj.__dict__[attr] is not orig, attr
    finally:
        tracer.uninstall()
    for (obj, attr), orig in originals.items():
        assert obj.__dict__[attr] is orig, attr


def test_traced_plant_runs_the_forwarding_kernels():
    # the tracer wraps plant.F and plant.dF on the plant cli.build_plant
    # returns; the forwarding kernels must still run on that plant
    config = SPANS.parent / "configs" / "wilson_cowan.ini"
    tracer = load_spans().Tracer("test", "0")
    try:
        tracer.install()
        cfg = cli.load_config(str(config))
        plant = cli.build_plant(cfg)
        for attr in ("F", "dF"):
            assert hasattr(plant.__dict__.get(attr), "__wrapped__"), attr
        fmap = cli.build_fmap(plant, cfg)
        w = plant.space_H.sample_ball(np.random.default_rng(0), 1.0)
        ev = forwarding.StateEvaluation(fmap, w)
        assert ev.nq > 0
        k = forwarding.assemble_feedback_matrix(fmap, w)
        assert k.shape == (plant.space_Z.dim,) * 2 and np.all(np.isfinite(k))
    finally:
        tracer.uninstall()


def test_traced_simulate_sees_its_scenarios_search(tmp_path):
    # the scenario's equilibrium search reads the run's states, and still
    # runs under the name the tracer wraps
    config = SPANS.parent / "configs" / "sine_gordon.ini"
    tracer = load_spans().Tracer("test", "0")
    try:
        tracer.install()
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path),
                         "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    searches = [sp[5] for sp in tracer.spans if sp[0] == "regulator.equilibrium"]
    assert [attrs["iterations"] for attrs in searches] == [150]
