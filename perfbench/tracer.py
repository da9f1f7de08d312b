"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program: it swaps a timing wrapper in for a
public function at every attribute its callers resolve it through (the
defining module, any ``repro`` module that imported it by name, or the
class that owns a method) and restores the originals on exit.  Each
call records one span — name, start, end, parent span and counts — in
memory; :meth:`Tracer.dump` writes them out when the run ends.

Self time is a span's duration minus the part covered by its child
spans; a layer is the span-name prefix before the first dot, which is
the ``repro`` package the wrapped function lives in.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Classifier hook: ``(args, kwargs, result) -> (span name, counts)``.
Classifier = Callable[[tuple, dict, Any], Tuple[str, Dict[str, float]]]


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    parent: Optional[int]
    op: int
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped functions (single thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._op = -1

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def op(self, run: Callable[[], Any]) -> Tuple[Any, int]:
        """Run one benchmark operation under a root ``op`` span.

        Returns ``(result, root span index)``; every span the call
        opens shares the root's op identifier.
        """
        self._op = len(self.spans)
        root = self._open("op")
        try:
            return run(), root
        finally:
            self._close(root)

    def inside(self, name: str) -> bool:
        """True while a span called *name* is open."""
        return any(self.spans[i].name == name for i in self._stack)

    def wrapper(self, func: Callable, name: str,
                classify: Optional[Classifier] = None) -> Callable:
        """*func* wrapped to record one span per call."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._close(index)
            if classify is not None:
                span.name, span.counts = classify(args, kwargs, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    # -- installing -----------------------------------------------------
    def patch_function(self, func: Callable, name: str,
                       classify: Optional[Classifier] = None) -> None:
        """Wrap a module-level function wherever ``repro`` binds it."""
        traced = self.wrapper(func, name, classify)
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no module binds {func.__qualname__}")

    def patch_method(self, owner: type, attr: str, name: str,
                     classify: Optional[Classifier] = None) -> None:
        """Wrap a method (plain or classmethod) on its owning class."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(
                self.wrapper(raw.__func__, name, classify)
            )
        else:
            replacement = self.wrapper(raw, name, classify)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(i)
        return kids

    def op_summary(self, root: int) -> Tuple[Dict[str, Dict[str, float]],
                                             Dict[str, Dict[str, float]]]:
        """``(by span name, by layer)`` tables for one op.

        Rows hold calls, inclusive and self seconds and summed counts.
        Inclusive time skips a span nested inside an open span of the
        same name (by-name rows) or the same layer (by-layer rows), so
        nesting is never counted twice.
        """
        kids = self.children()
        names: Dict[str, Dict[str, float]] = {}
        layers: Dict[str, Dict[str, float]] = {}

        def visit(index: int, open_names: frozenset,
                  open_layers: frozenset) -> None:
            span = self.spans[index]
            layer = span.name.split(".", 1)[0]
            self_s = span.duration - sum(
                self.spans[c].duration for c in kids.get(index, ())
            )
            row = names.setdefault(
                span.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += self_s
            if span.name not in open_names:
                row["incl_s"] += span.duration
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
            agg = layers.setdefault(layer, {"incl_s": 0.0, "self_s": 0.0})
            agg["self_s"] += self_s
            if layer not in open_layers:
                agg["incl_s"] += span.duration
            for child in kids.get(index, ()):
                visit(child, open_names | {span.name},
                      open_layers | {layer})

        visit(root, frozenset(), frozenset())
        return names, layers

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the run's spans as JSON lines (first line: *meta*)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "op": span.op,
                    "parent": span.parent,
                    "start": round(span.start, 9), "end": round(span.end, 9),
                    "counts": span.counts,
                }, sort_keys=True) + "\n")

