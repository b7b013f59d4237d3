"""What the numbers were measured on, and how noisy it was at the time.

The fingerprint goes into every result so that ``compare.py`` can refuse
to set numbers from different machines or builds side by side.  The probe
is two fixed pieces of work — a pure-Python loop and a run of tiny NumPy
calls, the two instruction mixes the program spends its time in — timed
between passes: when a pass is slow and the probes are too, the host was
busy, not the program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time

import numpy as np

from config import KERNELS, ROOT
from repro.exec.kernels import get_kernels
from repro.exec.native.build import find_compiler


def native_backend():
    """The native kernel backend, built (untimed) into the benchmark's own
    cache; exits when the repo would fall back to ``fused``."""
    backend = get_kernels(KERNELS)
    if backend.name != KERNELS:
        raise SystemExit(f"refusing to run: kernels={KERNELS!r} fell back "
                         f"to {backend.name!r} (no working C compiler?)")
    return backend


def fingerprint() -> dict:
    backend = native_backend()
    with open(backend.library_path, "rb") as f:
        so_hash = hashlib.sha256(f.read()).hexdigest()
    compiler = find_compiler()
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": version[0] if version else compiler,
        "native": backend.name,
        "native_so_sha256": so_hash,
        "commit": commit,
        "load_average": list(os.getloadavg()),
    }


def probe() -> tuple[float, float]:
    """(pure-Python ms, small-NumPy-call ms) for ~2 ms of fixed work each."""
    clock = time.perf_counter
    start = clock()
    total = 0
    for i in range(25_000):
        total += i * i
    python_ms = (clock() - start) * 1e3
    small = np.ones(16)
    start = clock()
    for _ in range(1_200):
        small.sum()
    return python_ms, (clock() - start) * 1e3
