"""Helpers shared by the test modules."""
import os
import subprocess
import sys
from pathlib import Path

from mpmath import mp

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


def integral_reference(a, b, k1, k2, k3, dps):
    """zeta_{a,b}(k1,k2,k3) as a polylog integral, a reference that shares
    no method with the closed form or the lattice-sum oracle.

    Euler's integral (DLMF 5.2.1), (am+bn)^-k3 = int_0^inf t^(k3-1)
    e^-(am+bn)t dt / (k3-1)!, summed over m, n >= 1, gives
    int_0^inf t^(k3-1) Li_k1(e^-at) Li_k2(e^-bt) dt / (k3-1)!.  mpmath's
    tanh-sinh `quad` handles Li_1's logarithmic endpoint; its error
    estimate is heuristic, so this is a reference for tests only.
    """
    with mp.workdps(dps):
        def integrand(t):
            return (t ** (k3 - 1) * mp.polylog(k1, mp.exp(-a * t))
                    * mp.polylog(k2, mp.exp(-b * t)))
        return mp.quad(integrand, [0, 1, mp.inf]) / mp.factorial(k3 - 1)
