"""Per-layer tracing from outside the engine: timing wrappers installed
around each layer's public functions for the duration of a traced run,
then removed.  Nothing inside ``table_annotation_ray`` changes.

Nesting on the annotate path (self times add up to the traced wall):

    annotate_turns_table / annotate_single          trace.wall.s
      fix_encoding                                  text.fix_encoding.s
      type_cell (memoized in the flagship)          typing.type_cell.s
      parse_table (serve only, minus its type_cell) preprocess.parse_table.s
      detect_orientation, detect_header (serve)     preprocess.detect_*.s
      TableAnnotator.annotate
        LabelIndex.search                           lookup.search.s
        the rest                                    annotator.disambiguate.s
      conversation_outputs_to_rows (flagship)       triples.emit.s
      anything else                                 trace.other.s
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import pyarrow as pa

from table_annotation_ray.functions import text as text_mod
from table_annotation_ray.stages import annotate_stage as annotate_mod
from table_annotation_ray.stages import preprocess as preprocess_mod

EMPTY_TRIPLES = pa.table({
    "subj": pa.array([], pa.string()), "pred": pa.array([], pa.string()),
    "obj": pa.array([], pa.string()), "conv_id": pa.array([], pa.string()),
    "score": pa.array([], pa.float64()),
})

class Tracer:
    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.lookup_misses = 0
        self.lookup_miss_s = 0.0
        self.lookup_candidates = 0
        self.type_hits = 0
        self.type_misses = 0

    def add(self, name: str, seconds: float) -> None:
        self.busy[name] += seconds
        self.calls[name] += 1

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - t0)
        return wrapper

    @contextmanager
    def patched(self, owner, attr: str, wrapper):
        """Set ``owner.attr = wrapper(original)`` until exit; a method
        shadowed on an instance is un-shadowed again."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, wrapper(original))
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _search_wrapper(self, index):
        def wrap(search):
            def traced_search(mention, k=None):
                before = index._search_cached.cache_info().misses
                t0 = time.perf_counter()
                out = search(mention, k)
                dt = time.perf_counter() - t0
                self.add("lookup.search", dt)
                self.lookup_candidates += len(out)
                if index._search_cached.cache_info().misses != before:
                    self.lookup_misses += 1
                    self.lookup_miss_s += dt
                return out
            return traced_search
        return wrap

    def _common(self, stack: ExitStack, index, annotator) -> None:
        for owner in (text_mod, preprocess_mod):
            stack.enter_context(self.patched(
                owner, "fix_encoding", lambda f: self.timed("text.fix_encoding", f)))
        stack.enter_context(self.patched(index, "search", self._search_wrapper(index)))
        stack.enter_context(self.patched(
            annotator, "annotate", lambda f: self.timed("annotator.annotate", f)))

    @contextmanager
    def instrument_stage(self, stage):
        """Trace an ``AnnotateBucket`` running ``annotate_turns_table``."""
        cache = stage._type_cell
        info0 = cache.cache_info()
        with ExitStack() as stack:
            self._common(stack, stage.index, stage.annotator)
            stack.enter_context(self.patched(
                stage, "_type_cell", lambda f: self.timed("typing.type_cell", f)))
            stack.enter_context(self.patched(
                annotate_mod, "conversation_outputs_to_rows",
                lambda f: self.timed("triples.emit", f)))
            yield
        info1 = cache.cache_info()
        self.type_hits += info1.hits - info0.hits
        self.type_misses += info1.misses - info0.misses

    @contextmanager
    def instrument_service(self, state):
        """Trace a ``ServiceState`` answering ``annotate`` requests from
        this thread."""
        with ExitStack() as stack:
            self._common(stack, state.stage.index, state._thread_annotator())
            stack.enter_context(self.patched(
                preprocess_mod, "type_cell", lambda f: self.timed("typing.type_cell", f)))
            for fn in ("parse_table", "detect_orientation", "detect_header"):
                stack.enter_context(self.patched(
                    preprocess_mod, fn,
                    lambda f, fn=fn: self.timed(f"preprocess.{fn}", f)))
            yield
        # parse_table is uncached on this path: every call is a miss
        self.type_misses += self.calls["typing.type_cell"]

    def annotate_metrics(self, wall: float, wall_untraced: float) -> dict:
        b = self.busy
        self_s = {
            "text.fix_encoding": b["text.fix_encoding"],
            "typing.type_cell": b["typing.type_cell"],
            # parse_table's own time, without the type_cell calls it makes
            "preprocess.parse_table": max(
                0.0, b["preprocess.parse_table"] - (
                    b["typing.type_cell"] if self.calls["preprocess.parse_table"] else 0.0)),
            "preprocess.detect_orientation": b["preprocess.detect_orientation"],
            "preprocess.detect_header": b["preprocess.detect_header"],
            "lookup.search": b["lookup.search"],
            "annotator.disambiguate": b["annotator.annotate"] - b["lookup.search"],
            "triples.emit": b["triples.emit"],
        }
        m = {f"{k}.s": v for k, v in self_s.items()}
        m["trace.wall.s"] = wall
        m["trace.other.s"] = wall - sum(self_s.values())
        m["trace.overhead_ratio"] = wall / wall_untraced
        searches = self.calls["lookup.search"]
        m["lookup.hit_ratio"] = (searches - self.lookup_misses) / searches if searches else 0.0
        m["lookup.miss_ms"] = (self.lookup_miss_s / self.lookup_misses * 1e3
                               if self.lookup_misses else 0.0)
        m["lookup.candidates_per_mention"] = (self.lookup_candidates / searches
                                              if searches else 0.0)
        typed = self.type_hits + self.type_misses
        m["typing.type_cell.hit_ratio"] = self.type_hits / typed if typed else 0.0
        for name in ("state.load_kb", "state.ctor"):
            m[f"{name}.s"] = b[name]
        return m
