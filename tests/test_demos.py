"""Smoke test of the demo scripts: the short ones run to completion as
scripts, the long sweep demo is only compiled."""

import os
import subprocess
import sys

import pytest

from conftest import CHECKOUT

DEMOS = CHECKOUT / "demos"


@pytest.mark.parametrize("name", ["strange_constant", "limit_spectra",
                                  "poisson_crossover"])
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
    proc = subprocess.run([sys.executable, str(DEMOS / (name + ".py"))],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_regime_classification_demo_compiles():
    # the demo runs a sweep (about 20 s), too long for this suite
    path = DEMOS / "regime_classification.py"
    compile(path.read_text(), str(path), "exec")
