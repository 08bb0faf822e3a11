"""The benchmark's layer tracer still finds every function and method it wraps.

A target that disappears (renamed, moved, inlined) would otherwise show up
only as a per-layer metric that reads 0.  The tracer patches the package in
place, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import ifsdigits.cli
import tracer
print(json.dumps(tracer.install(tracer.Recorder())))
"""


def test_tracer_finds_every_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
