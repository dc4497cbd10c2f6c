"""Machine record stored with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

GBYTES_NOTE = (
    "operators.advance.gbytes.computed counts the carrier's matrix bytes once "
    "per call plus the vectors in and out; it ignores cache effects. At "
    "n = 16 the mkz-symmetric parity blocks (about 270 MB) exceed a 105 MB L3, "
    "at n = 8 (about 43 MB) they fit, so equal byte counts can take unequal time.")


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def _blas() -> dict:
    """BLAS library behind numpy and its thread count, read from the
    loaded OpenBLAS when there is one."""
    import numpy as np

    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    info["threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.strip().endswith(".so")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                info["library"] = Path(path).name
                return info
    return info


def record(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "note": GBYTES_NOTE,
    }
