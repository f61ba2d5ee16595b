"""Helpers shared by the test modules."""
import os
import subprocess
import sys
from pathlib import Path

import tornheim


def child_env():
    """The environment of a fresh interpreter that imports the same
    package as this process, installed or not: its source root goes in
    front of the caller's PYTHONPATH, which is kept."""
    src = str(Path(tornheim.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_optimized(script):
    """stdout of script run under python -O, where asserts are stripped."""
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
