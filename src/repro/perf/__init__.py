"""Caching layer for the throughput-critical engines.

The paper's flow is re-grading-bound: every candidate pattern set is
fault-simulated against the undetected universe and SCAP-graded per
block, and the staged noise-aware procedure repeats both per stage per
clock domain.  This package supplies the caches that make those hot
paths cheap:

* :mod:`~repro.perf.cache` — a digest-keyed pattern-profile cache so
  staged flows never re-simulate an identical launch state,
* :mod:`~repro.perf.kernel_cache` — a persistent on-disk store of the
  fault simulator's compiled cone kernels, keyed by a structural
  netlist fingerprint, so the per-netlist compile tax is paid once per
  machine instead of once per run.

The consumers are :meth:`repro.atpg.fsim.FaultSimulator.run_batch`
(multi-word fault simulation) and
:meth:`repro.power.calculator.ScapCalculator.profile_patterns`
(batched SCAP grading).
"""

from .cache import PatternProfileCache, digest_key
from .kernel_cache import (
    KernelCache,
    current_kernel_cache,
    netlist_fingerprint,
    use_kernel_cache,
)

__all__ = [
    "KernelCache",
    "PatternProfileCache",
    "current_kernel_cache",
    "digest_key",
    "netlist_fingerprint",
    "use_kernel_cache",
]
