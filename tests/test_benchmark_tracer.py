"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps.

The tracer wraps package functions by name from outside the package, so a
rename in the package would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

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
