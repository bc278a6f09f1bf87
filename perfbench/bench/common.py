"""Shared helpers: percentiles, memory, provenance and the bandwidth probe."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in (perfbench/bench/common.py -> root).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for logs and anything a run leaves behind (git-ignored).
WORK = ROOT / ".perfbench"

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it.

    With too few samples for that percentile to lie above the median, the
    maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), float("nan")
    index = n - TAIL_BEYOND - 1
    if index < n // 2:
        index = n - 1
    return ordered[index], 100.0 * (index + 1) / n


def latency_summary(seconds: list[float]) -> dict:
    """Median and tail in milliseconds, with the sample count stated."""
    value, pct = tail(seconds)
    return {"p50_ms": median(seconds) * 1e3, "tail_ms": value * 1e3,
            "tail_pct": pct, "samples": len(seconds)}


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def program_env() -> dict:
    """Environment for processes running the program under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep the kernel-calibration cache inside the checkout.
    env["REPRO_CALIBRATION_FILE"] = str(WORK / "kernel-calibration.json")
    return env


def interpreter_boot_s(imports: str) -> float:
    """Wall time of a fresh interpreter that imports *imports* and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {imports}"],
                   env=program_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _git_sha() -> str | None:
    """HEAD's commit read straight from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def llc_bytes() -> int | None:
    """Size of the last-level cache of CPU 0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, value)
    return None if best is None else best[1]


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "llc_bytes": llc_bytes(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


#: Passes of the bandwidth probe; the best one is reported.
PROBE_PASSES = 5


def copy_bandwidth_probe() -> dict:
    """Host streaming bandwidth on an array at least 4x the last-level cache.

    One float64 array is scaled in place (every byte read once and written
    once per pass), so a pass moves ``2 * array_bytes`` with a single
    allocation; the best of :data:`PROBE_PASSES` passes is reported.
    """
    import numpy as np

    llc = llc_bytes() or (32 << 20)
    n = 4 * llc // 8 + 1
    data = np.ones(n)
    best = float("inf")
    for _ in range(PROBE_PASSES):
        t0 = time.perf_counter()
        np.multiply(data, 1.0, out=data)
        best = min(best, time.perf_counter() - t0)
    array_bytes = data.nbytes
    del data
    return {"array_bytes": array_bytes, "llc_bytes": llc,
            "gbps": 2 * array_bytes / best / 1e9}
