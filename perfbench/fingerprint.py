"""Hardware and environment description recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

from perfbench.service import PINNED_ENV

#: Symbols that report OpenBLAS's thread count, by build flavour.
_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def clients() -> int:
    """Concurrent connections the generator may open: the usable cores."""
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> Dict[str, Any]:
    """BLAS vendor and version from NumPy's build config, plus the thread
    count the loaded library reports (``None`` when it has no such call)."""
    import numpy as np

    info: Dict[str, Any] = {"name": "unknown", "version": "unknown"}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> Optional[int]:
    # The BLAS NumPy loaded shows up in this process's memory map.
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = {
        line.split()[-1]
        for line in maps
        if "blas" in line.lower() and line.split()[-1].startswith("/")
    }
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            # Never look above the checkout for a repository.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def fingerprint(root: Path, seed: int) -> Dict[str, Any]:
    """Everything a reader needs to judge where a result came from."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "clients": clients(),
        "cpu_model": cpu_model(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }
