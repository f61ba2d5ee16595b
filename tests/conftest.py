"""Helpers shared by the test modules."""
import os
from pathlib import Path

import tornheim


def child_env():
    """The environment of a fresh interpreter that imports the same
    package as this process, installed or not: its source root goes in
    front of the caller's PYTHONPATH, which is kept."""
    src = str(Path(tornheim.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
