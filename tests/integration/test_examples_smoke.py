"""Smoke tests: the example scripts must run end to end.

Every example but the sweep-heavy ``run_paper_experiments.py`` (covered by
the benchmark suite) runs here, in a subprocess exactly as a user would
run it, and must print its expected line.  The README's example list and
``examples/*.py`` must name the same scripts.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent.parent
EXAMPLES_DIR = ROOT / "examples"

FAST_EXAMPLES = {
    "ab_test_heuristics.py": "McNemar paired test",
    "ecommerce_funnel.py": "most frequent visited-together page pairs:",
    "log_pipeline.py": "Smart-SRA reconstructed",
    "prefetch_recommender.py": "heur4 reconstruction",
    "quickstart.py": "Smart-SRA (heur4) recovers the most sessions",
    "streaming_tail.py": "identical: True",
    "worked_examples.py": "P1 P20 *P1 P13 P49 *P13 P34 P23",
}


@pytest.mark.parametrize("script", sorted(FAST_EXAMPLES))
def test_example_runs(script, tmp_path):
    # examples that work in a temp directory leave it for inspection;
    # here it lands under the test's own tmp_path.
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=240, check=False,
        env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert FAST_EXAMPLES[script] in completed.stdout


def test_every_example_has_a_module_docstring_and_main():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"^python examples/(\S+\.py)", readme,
                            flags=re.MULTILINE))
    assert listed == {script.name for script in scripts}
    assert set(FAST_EXAMPLES) == listed - {"run_paper_experiments.py"}
    for script in scripts:
        text = script.read_text(encoding="utf-8")
        assert text.startswith('"""'), f"{script.name} lacks a docstring"
        assert 'if __name__ == "__main__":' in text, (
            f"{script.name} is not runnable")
        assert "Run:" in text, f"{script.name} lacks a Run: line"
