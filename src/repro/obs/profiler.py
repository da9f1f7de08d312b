"""Optional per-stage ``cProfile`` capture with a hotspot table.

Profiling is off by default (it costs real time); when the telemetry
facade enables it, each flow stage runs under its own profiler and the
accumulated statistics collapse into one top-N hotspot table that the
:class:`~repro.reporting.runreport.RunReport` carries and the CLI
prints.  Stages execute sequentially in one process, so one profiler
at a time is enough.
"""

from __future__ import annotations

import cProfile
import pstats
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class StageProfiler:
    """Collects per-stage profiles and merges them into hotspots."""

    def __init__(self, top_n: int = 20) -> None:
        self.top_n = top_n
        self._stats: Dict[str, pstats.Stats] = {}
        self._active: Optional[str] = None

    @property
    def stages(self) -> List[str]:
        return list(self._stats)

    @contextmanager
    def profile(self, stage: str) -> Iterator[None]:
        """Profile one stage (no-op when a profile is already active —
        ``cProfile`` cannot nest)."""
        if self._active is not None:
            yield
            return
        profiler = cProfile.Profile()
        self._active = stage
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            self._active = None
            stats = pstats.Stats(profiler)
            if stage in self._stats:
                self._stats[stage].add(stats)
            else:
                self._stats[stage] = stats

    # -- reporting ------------------------------------------------------
    def hotspots(self, top_n: Optional[int] = None) -> List[Dict[str, Any]]:
        """Top functions by own (tottime) seconds, merged over stages.

        Each row: ``function`` (``file:line(name)``), ``ncalls``,
        ``tottime_s``, ``cumtime_s``.
        """
        limit = top_n if top_n is not None else self.top_n
        merged: Dict[str, List[float]] = {}
        for stats in self._stats.values():
            for (path, line, func), entry in stats.stats.items():  # type: ignore[attr-defined]
                cc, nc, tt, ct = entry[0], entry[1], entry[2], entry[3]
                label = f"{_short_path(path)}:{line}({func})"
                row = merged.setdefault(label, [0.0, 0.0, 0.0])
                row[0] += nc
                row[1] += tt
                row[2] += ct
        rows = [
            {
                "function": label,
                "ncalls": int(vals[0]),
                "tottime_s": round(vals[1], 6),
                "cumtime_s": round(vals[2], 6),
            }
            for label, vals in merged.items()
        ]
        rows.sort(key=lambda r: (-float(r["tottime_s"]), r["function"]))
        return rows[:limit]

    def format_table(self, top_n: Optional[int] = None) -> str:
        """Plain-text hotspot table (the RunReport/CLI rendering)."""
        rows = self.hotspots(top_n)
        if not rows:
            return "(no profile captured)"
        from ..reporting.tables import format_table

        return format_table(
            rows,
            columns=["tottime_s", "cumtime_s", "ncalls", "function"],
            title=f"Top {len(rows)} hotspots (by own time):",
        )


def _short_path(path: str) -> str:
    """Trim profiler paths to the interesting tail (pkg/module.py)."""
    if path.startswith("<"):  # builtins, compiled cone kernels
        return path
    parts = path.replace("\\", "/").split("/")
    return "/".join(parts[-2:]) if len(parts) > 1 else path
