"""Names the documents promise still exist in ``src/``.

docs/api-guide.md is the public API: every ``from repro... import ...``
it shows must run.  ``benchmarks/perf/REACH.json`` lists what no entry
point reaches: every entry must still name a function or class, so
deleting code means updating the list, and nothing deleted by it may
still be called from ``src/``.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reach():
    path = os.path.join(ROOT, "benchmarks", "perf", "reach.py")
    spec = importlib.util.spec_from_file_location("reach_list", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _reach()

with open(os.path.join(ROOT, "docs", "api-guide.md")) as f:
    GUIDE_IMPORTS = reach._import_lines(f.read())


def test_the_guide_shows_imports():
    assert len(GUIDE_IMPORTS) >= 10


@pytest.mark.parametrize("statement", GUIDE_IMPORTS)
def test_api_guide_import_runs(statement):
    exec(statement, {})


def test_every_listed_entry_exists_in_src():
    with open(reach.LIST) as f:
        listed = [row["id"] for row in json.load(f)["unreached"]]
    defined = {entry.id for entry in reach.inventory()}
    assert listed, "REACH.json lists nothing"
    assert sorted(set(listed) - defined) == []


def test_src_calls_nothing_the_list_deleted():
    """A deleted method whose name src/ still loads is a caller left
    behind, unless reach.SHARED_NAMES records the namesake those loads
    reach."""
    with open(reach.LIST) as f:
        deleted = [row["id"] for row in json.load(f)["deleted"]]
    assert reach.unchecked_deletions(deleted) == {}
    assert sorted(set(reach.SHARED_NAMES) - set(deleted)) == []
