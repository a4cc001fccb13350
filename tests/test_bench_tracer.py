"""The benchmark's tracer (bench/tracing.py) wraps program functions by the
names their callers look them up by; installing it must find every one."""

import os
import subprocess
import sys
from pathlib import Path

import trihomog

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_finds_every_wrapped_name():
    src = str(Path(trihomog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=src)
    code = ("import sys; sys.path.insert(0, %r); import tracing; "
            "tracing.install(tracing.Tracer())" % str(BENCH))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
