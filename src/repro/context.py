"""One session object for the run-wide configuration.

A run is configured by two ambient values: the telemetry facade every
instrumented layer reports to (:mod:`repro.obs`) and the compiled-kernel
cache the fault simulators load from (:mod:`repro.perf.kernel_cache`).
:class:`RunContext` holds both as one frozen value, and a single
:class:`contextvars.ContextVar` holds the session in scope::

    ctx = RunContext(
        telemetry=Telemetry(tracing=True),
        kernel_cache=KernelCache(tmp_dir),
    )
    with use_run_context(ctx):
        run_noise_tolerant_flow(design)        # both apply

:func:`repro.obs.use_telemetry` and
:func:`repro.perf.kernel_cache.use_kernel_cache` replace one field of
the current session for a block; nest them for a partial override.

The session is per thread and per asyncio task.  A new thread starts
from the process default — the null facade plus the
``REPRO_KERNEL_CACHE``-resolved :class:`~repro.perf.kernel_cache.KernelCache`
(``None`` when caching is off), resolved once per process — and every
asyncio task, ``asyncio.to_thread`` call included, runs on a copy of the
session current when it was created.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from .obs.telemetry import AnyTelemetry
    from .perf.kernel_cache import KernelCache


@dataclass(frozen=True)
class RunContext:
    """The complete, immutable session configuration of a run."""

    #: Telemetry facade every instrumented layer reports to.
    telemetry: AnyTelemetry
    #: Compiled-kernel cache simulators load from (``None``: caching off).
    kernel_cache: Optional[KernelCache]


_SESSION: ContextVar[RunContext] = ContextVar("repro_session")

#: The process default session, resolved on first use.
_default: Optional[RunContext] = None
_default_lock = threading.Lock()


def _process_default() -> RunContext:
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                # Deferred: both modules import this one.
                from .obs.telemetry import NULL_TELEMETRY
                from .perf.kernel_cache import KernelCache, cache_enabled

                _default = RunContext(
                    telemetry=NULL_TELEMETRY,
                    kernel_cache=KernelCache() if cache_enabled() else None,
                )
    return _default


def current_run_context() -> RunContext:
    """The session in scope (the process default outside any scope).

    Re-scoping the snapshot with :func:`use_run_context` reproduces the
    current configuration, e.g. in another thread.
    """
    ctx = _SESSION.get(None)
    return ctx if ctx is not None else _process_default()


@contextmanager
def use_run_context(context: RunContext) -> Iterator[RunContext]:
    """Make *context* the whole session for the block."""
    token = _SESSION.set(context)
    try:
        yield context
    finally:
        _SESSION.reset(token)
