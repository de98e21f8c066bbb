"""What importing an entry point loads.

``repro/__init__.py`` resolves its subpackages lazily (PEP 562), so a
spawned data-parallel worker and the serving CLI import only the modules
they use.  Each check runs in a fresh interpreter: this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# Heavy or unrelated to training a shard / serving a snapshot.
NOT_NEEDED = (
    "scipy.stats",
    "repro.explainers",
    "repro.analysis",
    "repro.viz",
    "repro.experiments",
)


def _run(code: str):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro.parallel.worker", "repro.serve.cli", "repro.__main__"]
)
def test_entry_point_leaves_unused_packages_unloaded(module):
    loaded = _run(
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {NOT_NEEDED!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_every_subpackage_still_reachable_from_the_package():
    result = _run(
        "import json, types, repro\n"
        "names = [n for n in repro.__all__ if n != '__version__']\n"
        "listed = [n for n in names if n in dir(repro)]\n"
        "loaded = [n for n in names\n"
        "          if isinstance(getattr(repro, n), types.ModuleType)]\n"
        "print(json.dumps({'names': names, 'listed': listed, 'loaded': loaded}))"
    )
    assert "explainers" in result["names"]
    assert result["listed"] == result["names"]
    assert result["loaded"] == result["names"]


def test_unknown_attribute_still_raises():
    message = _run(
        "import json, repro\n"
        "try:\n"
        "    repro.not_a_subpackage\n"
        "except AttributeError as error:\n"
        "    print(json.dumps(str(error)))"
    )
    assert "not_a_subpackage" in message
