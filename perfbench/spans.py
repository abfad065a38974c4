"""Span tracer installed around the program's public entry points.

The traced run wraps the functions and methods each layer exposes (the
host API, engine construction and run, the scheduler cores, plan
compilation and keying, certification, admission analysis, the
executor, the service front end and worker execution, and the ledger)
from this file only: no code under ``src/`` knows it is measured.

Every call through a wrapper records one :class:`Span` (name, start,
end, parent span, request id and thread) in memory.  A span's *self
time* is its duration minus the part of it its child spans cover.
Spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


_INHERITED = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    thread: str
    index: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span, by index: duration minus child cover."""
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(kids.get(s.index, []), s.start, s.end)
            for s in spans]


class Tracer:
    """Records spans; thread-safe; one parent stack per thread."""

    def __init__(self, request_of: Optional[Callable[[], Optional[str]]]
                 = None) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request_of = request_of
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Request id the main thread is working on (host workloads
        #: have no service run id, so the pass loop names its ops).
        self.request: Optional[str] = None

    # -- recording -----------------------------------------------------------
    def set_request(self, request: Optional[str]) -> None:
        self.request = request

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _current_request(self) -> Optional[str]:
        rid = self._request_of() if self._request_of is not None else None
        return rid if rid is not None else self.request

    def open(self, name: str) -> Span:
        st = self._stack()
        span = Span(name, time.perf_counter(), 0.0,
                    st[-1] if st else None, self._current_request(),
                    threading.current_thread().name)
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        st.append(span.index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        st = self._stack()
        if st and st[-1] == span.index:
            st.pop()

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[Any, tuple, Any], None]] = None
             ) -> Callable:
        """A wrapper timing ``fn`` as span ``name``.

        ``after(result, args, span)`` runs once the span is closed, to
        pull counters out of a call's result without charging the work
        to the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(out, args, span)
            return out

        return traced

    # -- installing ----------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, wrapper: Any) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`uninstall`.

        An attribute a class only inherits is shadowed, and removed
        again on uninstall.
        """
        self._patches.append((owner, attr,
                              vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     after=None) -> None:
        self.patch_attr(cls, attr, self.wrap(name, getattr(cls, attr),
                                             after))

    def patch_property(self, cls: type, attr: str, name: str) -> None:
        """Time a property's getter (a cached one: its first read)."""
        prop = vars(cls)[attr]
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(self.wrap(name, prop.func))
            wrapped.__set_name__(cls, attr)
        else:
            wrapped = property(self.wrap(name, prop.fget))
        self.patch_attr(cls, attr, wrapped)

    def patch_function(self, fn: Callable, name: str, after=None,
                       prefixes: Tuple[str, ...] = ("repro",)) -> None:
        """Wrap ``fn`` in every loaded module that bound it by name.

        ``from x import f`` copies the reference, so the function is
        replaced wherever a module under one of ``prefixes`` holds it.
        """
        wrapper = self.wrap(name, fn, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not any(
                    mod_name == p or mod_name.startswith(p + ".")
                    for p in prefixes):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.patch_attr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if orig is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        with self._lock:
            spans = list(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for s, st in zip(spans, self_times(spans)):
            agg = out.setdefault(s.name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += st
        return out

    def accounting(self, windows: List[Tuple[float, float]], thread: str
                   ) -> Dict[str, object]:
        """Split one thread's time in ``windows`` into layer self times
        plus the remainder no span covers.

        By construction ``sum(layers) + untraced`` equals the windows'
        total length; the split shows where that thread spent its time.
        """
        with self._lock:
            spans = [s for s in self.spans if s.thread == thread]
        pos = {s.index: i for i, s in enumerate(spans)}
        total = sum(hi - lo for lo, hi in windows)
        layers: Dict[str, float] = {}
        covered_s = 0.0
        for lo, hi in windows:
            clipped = []
            for i, s in enumerate(spans):
                start = min(max(s.start, lo), hi)
                clipped.append(Span(s.name, start,
                                    max(start, min(s.end, hi)),
                                    pos.get(s.parent), s.request, s.thread,
                                    i))
            for s, st in zip(clipped, self_times(clipped)):
                if st:
                    layers[s.name] = layers.get(s.name, 0.0) + st
            covered_s += covered([(s.start, s.end) for s in clipped
                                  if s.parent is None], lo, hi)
        untraced = total - covered_s
        return {"window_s": total, "layers_s": layers,
                "untraced_s": untraced,
                "sum_s": sum(layers.values()) + untraced}

    def threads(self) -> List[str]:
        """Names of the threads that recorded spans, in first-seen order."""
        with self._lock:
            return list(dict.fromkeys(s.thread for s in self.spans))

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [asdict(s) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"schema": "perfbench.spans/1", "spans": spans}, f)
