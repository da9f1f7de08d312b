"""Host block recorded in every committed ``BENCH_*.json``.

A timing means little without the machine behind it: the usable core
count (affinity/cgroup aware, which is what a process can actually run
on), the machine total, the interpreter and numeric-library versions,
and the source revision the numbers were measured at.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

_REPO = Path(__file__).resolve().parents[1]


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_REPO, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block() -> Dict[str, Any]:
    """Usable/total CPUs, Python/numpy/scipy versions, git revision."""
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        usable = os.cpu_count()
    return {
        "cpus_usable": usable,
        "cpus_total": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
    }
