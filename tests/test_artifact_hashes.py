"""tools/artifact_hashes.py reports exactly the entries that differ.

Every byte-identity claim about a change rests on its ``differences``, so
this pins what it reports; the runs themselves are not started here.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differences_reports_only_the_entries_that_differ():
    differences = load_tool().differences
    same = [0, "ab", {"gains.json": "cd"}]
    ours = {"same": same, "ours only": [0, "ef", {}],
            "changed": [0, "ab", {"run.csv": "01"}]}
    theirs = {"same": list(same), "theirs only": [2, "gh", {}],
              "changed": [1, "ab", {"run.csv": "02"}]}
    assert differences(ours, theirs) == {
        "changed": {"ours": [0, "ab", {"run.csv": "01"}],
                    "theirs": [1, "ab", {"run.csv": "02"}]},
        "ours only": {"ours": [0, "ef", {}], "theirs": None},
        "theirs only": {"ours": None, "theirs": [2, "gh", {}]},
    }
    assert differences(ours, dict(ours)) == {}
