"""In-memory span recording for the traced benchmark run.

Spans are (id, name, start, end, parent) records kept in a list and written
as JSONL when the run ends. The benchmark opens spans around its own calls
into the library, and in the traced run only it also wraps library module
and class attributes so that the calls the library makes internally
(``ScoringGraph.backward`` inside ``train``, say) get spans too. ``restore``
puts every original attribute back.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "rulelink"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "phase": self.phase,
            "attrs": attrs,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name, attrs)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrapper(self, func, name: str, attrs_fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name, attrs_fn(*args, **kwargs) if attrs_fn else {})
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(rec)

        traced.__wrapped__ = func
        return traced

    def wrap_function(self, module, attr: str, name: str, attrs_fn=None) -> None:
        """Wrap a module-level function under every name the package's
        modules bound it to (``from .corpus import load_dataset`` makes a
        second binding in the importing module)."""
        original = getattr(module, attr)
        traced = self._wrapper(original, name, attrs_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str, attrs_fn=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrapper(raw.__func__, name, attrs_fn))
        else:
            traced = self._wrapper(raw, name, attrs_fn)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans back ------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                out.setdefault(s["parent"], []).append(s)
        return out

    def has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    @staticmethod
    def duration(span: dict) -> float:
        return (span["end"] - span["start"]) / 1e9

    def self_time(self, span: dict, children=None) -> float:
        """Duration minus the part covered by direct child spans (children
        of one span never overlap: the run is single-threaded)."""
        kids = (self.children() if children is None else children).get(span["id"], [])
        return self.duration(span) - sum(self.duration(k) for k in kids)

    def write_jsonl(self, path) -> None:
        origin = self.spans[0]["start"] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s["end"] is None:
                    continue
                fh.write(json.dumps({
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "phase": s["phase"],
                    "start_s": (s["start"] - origin) / 1e9,
                    "end_s": (s["end"] - origin) / 1e9,
                    **({"attrs": s["attrs"]} if s["attrs"] else {}),
                }) + "\n")


class NullTracer:
    """Stand-in used when tracing is off: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield None
