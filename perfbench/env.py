"""Process environment shared by the benchmark's scripts: the BLAS thread
cap, the source tree the benchmark imports, and the machine facts recorded
with every result.

Import this module before numpy: the thread cap is read when the BLAS
library loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "alselect"


class MissingSourceError(RuntimeError):
    pass


def use_source_tree() -> None:
    """Import alselect from this checkout's src/, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourceError(f"alselect sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }
