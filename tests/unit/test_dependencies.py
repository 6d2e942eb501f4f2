"""numpy is the only runtime dependency: scipy and networkx stay out.

The suite's conftest blocks both packages for every test, so a passing
tier-1 run is a run without them.  These tests check that the block is in
force here, and that a fresh ``import repro`` (with both installed or not)
loads neither.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from tests.conftest import BLOCKED_PACKAGES

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("package", BLOCKED_PACKAGES)
def test_suite_runs_with_the_package_blocked(package):
    assert package not in sys.modules
    with pytest.raises(ImportError, match="blocked"):
        importlib.import_module(package)


_PROBE = """
import importlib, pkgutil, sys
import repro

def loaded():
    return sorted({name.partition(".")[0] for name in sys.modules}
                  & {BLOCKED})

print(loaded())
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
print(loaded())
"""


def test_no_repro_module_loads_either_package():
    """``import repro``, then every ``repro`` module, in a fresh process
    without the block: neither package may show up in ``sys.modules``."""
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, os.environ.get("PYTHONPATH", "")]))
    probe = _PROBE.replace("{BLOCKED}", repr(set(BLOCKED_PACKAGES)))
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split("\n")[:2] == ["[]", "[]"]


def test_numpy_is_the_only_declared_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text,
                      flags=re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block) == ["numpy"]
