"""In-memory span tracer that instruments a program from the outside.

Wrappers are installed at the name each caller looks up: a module that did
``from pkg.mod import f`` holds its own binding of ``f``, so the wrapper must
replace ``caller_module.f``, not ``pkg.mod.f``. Class methods are replaced on
the class, which every instance sees.

Each wrapped call records a span (name, start, end, parent) and optional
counts read from its arguments and return value. Spans stay in memory until
the caller writes them out. A layer's self time is its span's duration minus
the part of that interval covered by its child spans, so over a single-threaded
run the self times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass, field

_INHERITED = object()  # restore by deleting the attribute set on the subclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans for wrapped callables; not thread-safe (one call stack)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._installed: dict[str, int] = {}

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording a span per call.

        ``counter(args, kwargs, result)`` returns a dict of numbers stored on
        the span; it is not called when ``fn`` raises.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["raised"] = 1
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counter is not None:
                span.attrs.update(counter(args, kwargs, result))
            return result

        return traced

    def patch(self, target: str, attr: str, name: str, counter=None) -> bool:
        """Replace ``target.attr`` (module or class path) with a traced wrapper.

        Returns False, and installs nothing, when the target or the attribute
        does not exist; a layer none of whose targets exist is absent.
        """
        self._installed.setdefault(name, 0)
        owner = _resolve(target)
        if owner is None or not hasattr(owner, attr):
            return False
        if not isinstance(owner, type):
            original = getattr(owner, attr)
        else:
            original = vars(owner).get(attr, _INHERITED)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))
        self._installed[name] += 1
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def absent(self) -> list[str]:
        """Span names requested through patch() for which no target existed."""
        return sorted(n for n, k in self._installed.items() if k == 0)

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of self.spans."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            hi = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo = max(c.start, hi)
                top = min(c.end, s.end)
                if top > lo:
                    covered += top - lo
                    hi = top
            out.append((s.end - s.start) - covered)
        return out

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, and each count summed and maxed."""
        out: dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "sum": {}, "max": {}})
            agg["calls"] += 1
            agg["total_s"] += s.end - s.start
            agg["self_s"] += self_s
            for k, v in s.attrs.items():
                agg["sum"][k] = agg["sum"].get(k, 0) + v
                agg["max"][k] = max(agg["max"].get(k, v), v)
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _resolve(target: str):
    """Import a module path, or a module path followed by class names."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
