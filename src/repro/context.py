"""One session object for the run-wide configuration knobs.

Two ambient scopes configure a run —
:func:`repro.obs.use_telemetry` and
:func:`repro.perf.kernel_cache.use_kernel_cache`.  :class:`RunContext`
bundles them into one immutable session object, and
:func:`use_run_context` scopes them together::

    ctx = RunContext(
        telemetry=Telemetry(tracing=True),
        kernel_cache=KernelCache(tmp_dir),
    )
    with use_run_context(ctx):
        run_noise_tolerant_flow(design)        # both apply
    run_noise_tolerant_flow(design, context=ctx)  # same thing

Every field defaults to "inherit the ambient value", so partial
contexts compose: ``RunContext(kernel_cache=...)`` inside a
``use_telemetry(...)`` block keeps the outer telemetry.  For the
kernel cache — whose ambient value is itself optional — the sentinel
:data:`INHERIT_CACHE` distinguishes "inherit" from ``None`` ("disable
caching for this scope").

The individual context managers remain fully supported; a
:class:`RunContext` is exactly equivalent to nesting them, which is
what :func:`use_run_context` does.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import ContextManager, Iterator, Optional, Union

from .obs import AnyTelemetry, current_telemetry, use_telemetry
from .perf.kernel_cache import (
    KernelCache,
    current_kernel_cache,
    use_kernel_cache,
)


class _InheritCache:
    """Sentinel type: leave the ambient kernel cache alone."""

    def __repr__(self) -> str:
        return "INHERIT_CACHE"


#: Default for :attr:`RunContext.kernel_cache`: inherit the ambient
#: cache.  Pass ``None`` to disable caching inside the scope.
INHERIT_CACHE = _InheritCache()


@dataclass(frozen=True)
class RunContext:
    """Immutable bundle of the session-wide configuration knobs.

    ``None`` (or :data:`INHERIT_CACHE` for the cache) means "inherit
    whatever is ambient", so contexts can be partial and nest.
    """

    #: Telemetry facade scoped over the run (``None`` = inherit the
    #: ambient facade; pass ``repro.obs.NULL_TELEMETRY`` to force off).
    telemetry: Optional[AnyTelemetry] = None
    #: Compiled-kernel cache (``None`` disables caching in the scope).
    kernel_cache: Union[KernelCache, None, _InheritCache] = INHERIT_CACHE


def current_run_context() -> RunContext:
    """Snapshot of the ambient configuration as a :class:`RunContext`.

    Re-scoping the snapshot reproduces the current environment — handy
    for shipping the session configuration across an API boundary.
    """
    return RunContext(
        telemetry=current_telemetry(),
        kernel_cache=current_kernel_cache(),
    )


@contextmanager
def use_run_context(
    context: Optional[RunContext],
) -> Iterator[RunContext]:
    """Scope every non-inherit field of *context* ambiently.

    Exactly equivalent to nesting the individual context managers;
    ``None`` (or an all-default context) scopes nothing and is free.
    """
    ctx = context if context is not None else RunContext()
    telemetry_scope: ContextManager[object] = (
        nullcontext()
        if ctx.telemetry is None
        else use_telemetry(ctx.telemetry)
    )
    cache_scope: ContextManager[object] = (
        nullcontext()
        if isinstance(ctx.kernel_cache, _InheritCache)
        else use_kernel_cache(ctx.kernel_cache)
    )
    with telemetry_scope, cache_scope:
        yield ctx
