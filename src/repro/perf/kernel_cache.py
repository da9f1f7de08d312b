"""Persistent on-disk compiled-kernel cache.

Fault simulation code-generates one straight-line Python kernel per
fault-site fanout cone (see :meth:`repro.atpg.fsim.FaultSimulator`).
Generating and ``compile()``-ing ~2 000 of them costs seconds — paid
once per :class:`FaultSimulator`, so once per process per run (and
once per job shard in the service).  This cache makes that cost once
per *netlist*:
compiled kernels are stored on disk as :mod:`marshal`-serialised code
objects keyed by a structural netlist fingerprint, and a warm load
(``marshal.loads`` + one ``FunctionType`` per site) is ~100x cheaper
than recompiling.

Layout (one file per ``(netlist, domain, kernel schema, Python
bytecode magic)`` combination, name fully derived from the key)::

    <root>/
        <sha1-hex>.kc     # 20-byte sha1 checksum + marshal payload

The payload is ``(schema, magic, {site: (captures, gates, code)})``
with ``code = None`` for cones that reach no capture net.  Every read
verifies the checksum and the embedded schema/magic, so a corrupted or
foreign entry degrades to a miss (recompile), never a failure; writes
go through a temp file + :func:`os.replace`, so concurrent processes
racing on a cold cache at worst overwrite each other with identical
content.  The directory is bounded: past ``max_entries`` files the
oldest (by mtime) are evicted.

The cache is ambient by default (like
:func:`repro.obs.use_telemetry`): simulators pick up
:func:`current_kernel_cache` unless handed an explicit cache or
``None``.  ``REPRO_KERNEL_CACHE=0`` disables it process-wide;
``REPRO_KERNEL_CACHE_DIR`` moves the default root (otherwise
``~/.cache/repro/kernels``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import CodeType
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs import current_telemetry

#: Bump when the kernel code generator changes shape: a schema mismatch
#: invalidates every cached entry (they simply stop matching their key).
KERNEL_SCHEMA_VERSION = 1

#: Python bytecode magic — marshalled code objects are only valid for
#: the interpreter that produced them.
_MAGIC = importlib.util.MAGIC_NUMBER

#: site -> (capture nets, cone gates, compiled kernel code or None).
KernelTable = Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...], Optional[CodeType]]]


def default_cache_root() -> Path:
    """Resolve the default on-disk location for kernel caches."""
    env = os.environ.get("REPRO_KERNEL_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernels"


def cache_enabled() -> bool:
    """False when ``REPRO_KERNEL_CACHE`` is set to 0/false/off."""
    return os.environ.get("REPRO_KERNEL_CACHE", "1").lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def netlist_fingerprint(netlist, extra: Tuple = ()) -> str:
    """SHA-1 over the netlist *structure* (plus a context tuple).

    Everything a compiled cone kernel depends on feeds the hash: gate
    kinds and connectivity, flop wiring/edges/domains and net count.  A
    mutated netlist therefore lands on a different cache entry and can
    never be served stale kernels.
    """
    h = hashlib.sha1()
    h.update(netlist.name.encode("utf-8", "replace"))
    h.update(b"|%d|%d|%d" % (netlist.n_nets, netlist.n_gates, netlist.n_flops))
    for g in netlist.gates:
        h.update(g.kind.encode("ascii", "replace"))
        h.update(b",".join(b"%d" % p for p in g.inputs))
        h.update(b">%d;" % g.output)
    for f in netlist.flops:
        h.update(
            b"F%d:%d:%s:%s;"
            % (
                f.d,
                f.q,
                f.clock_domain.encode("utf-8", "replace"),
                f.edge.encode("ascii", "replace"),
            )
        )
    h.update(repr(extra).encode("utf-8"))
    return h.hexdigest()


class KernelCache:
    """Digest-keyed persistent store of compiled cone kernels."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        max_entries: int = 128,
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.root = Path(root) if root is not None else default_cache_root()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        # In-memory table memo: later simulators in the same process
        # skip the read+checksum+marshal entirely.  Safe because an
        # entry's content is a pure function of its key.
        self._mem: Dict[str, KernelTable] = {}

    # ------------------------------------------------------------------
    def entry_key(self, fingerprint: str, domain: str) -> str:
        """Fully-resolved entry key: design + domain + schema + magic."""
        h = hashlib.sha1(fingerprint.encode("ascii"))
        h.update(domain.encode("utf-8", "replace"))
        h.update(b"|v%d|" % KERNEL_SCHEMA_VERSION)
        h.update(_MAGIC)
        return h.hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.root / f"{key}.kc"

    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[KernelTable]:
        """The cached kernel table for *key*, or None on any miss.

        A checksum failure, truncated file, marshal error or
        schema/magic mismatch all count as a miss — the corrupt file is
        removed so the next store starts clean.

        Loads are memoized per instance: the second simulator for the
        same netlist in one process never touches the disk (so on-disk
        damage after a successful load goes unnoticed until a fresh
        process / cache instance reads the file again).
        """
        tel = current_telemetry()
        mem = self._mem.get(key)
        if mem is not None:
            self.hits += 1
            tel.count("kcache.hits")
            return mem
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            tel.count("kcache.misses")
            return None
        table = self._decode(raw)
        if table is None:
            self.misses += 1
            tel.count("kcache.misses")
            tel.count("kcache.corrupt_entries")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        tel.count("kcache.hits")
        self._mem[key] = table
        try:  # LRU touch for eviction ordering
            os.utime(path, None)
        except OSError:
            pass
        return table

    def store(self, key: str, table: KernelTable) -> None:
        """Atomically persist *table* under *key*, evicting past the cap."""
        payload = marshal.dumps((KERNEL_SCHEMA_VERSION, _MAGIC, table))
        blob = hashlib.sha1(payload).digest() + payload
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".kc.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self.entry_path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return  # a read-only cache dir disables persistence, not the run
        self._mem[key] = table
        self.stores += 1
        current_telemetry().count("kcache.stores")
        self._evict()

    @staticmethod
    def _decode(raw: bytes) -> Optional[KernelTable]:
        if len(raw) < 20:
            return None
        digest, payload = raw[:20], raw[20:]
        if hashlib.sha1(payload).digest() != digest:
            return None
        try:
            schema, magic, table = marshal.loads(payload)
        except (ValueError, EOFError, TypeError):
            return None
        if schema != KERNEL_SCHEMA_VERSION or magic != _MAGIC:
            return None
        if not isinstance(table, dict):
            return None
        return table

    def _evict(self) -> None:
        try:
            entries = sorted(
                self.root.glob("*.kc"), key=lambda p: p.stat().st_mtime
            )
        except OSError:
            return
        excess = len(entries) - self.max_entries
        for path in entries[:max(0, excess)]:
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            current_telemetry().count("kcache.evictions")

    # ------------------------------------------------------------------
    def entries(self) -> List[Path]:
        try:
            return sorted(self.root.glob("*.kc"))
        except OSError:
            return []

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "entries": len(self.entries()),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


# ----------------------------------------------------------------------
# ambient default (same pattern as repro.obs.use_telemetry)
# ----------------------------------------------------------------------
_UNSET = object()
_cache_stack: List[Optional[KernelCache]] = [_UNSET]  # type: ignore[list-item]


def current_kernel_cache() -> Optional[KernelCache]:
    """The ambient cache simulators use by default (None = disabled)."""
    top = _cache_stack[-1]
    if top is _UNSET:
        top = KernelCache() if cache_enabled() else None
        _cache_stack[-1] = top
    return top


@contextmanager
def use_kernel_cache(cache: Optional[KernelCache]) -> Iterator[Optional[KernelCache]]:
    """Scope the ambient kernel cache (``None`` disables caching)::

        with use_kernel_cache(KernelCache(tmp_path)):
            FaultSimulator(netlist, domain)  # compiles into tmp_path
    """
    _cache_stack.append(cache)
    try:
        yield cache
    finally:
        _cache_stack.pop()
