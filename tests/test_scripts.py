"""Smoke tests of the experiment scripts: each runs to completion on one seed.

The scripts import only the public package, so a renamed or deleted name
they rely on shows up here rather than at the next experiment.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import wssda

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script", ["null_space_demo.py", "heteroscedastic_benchmark.py"])
def test_script_runs_on_one_seed(script):
    # the child imports the same wssda as this suite, installed or not
    src = os.path.dirname(os.path.dirname(wssda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--seeds", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
