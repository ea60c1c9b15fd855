"""In-memory span recording for one workload iteration.

A span has a name ("<layer>.<function>"), a start, an end, the span that
was open when it began (its parent) and the id of the iteration it belongs
to.  Spans live in flat arrays while the iteration runs and are analysed
or written out only after it ends, so recording one costs two clock reads
and four appends.
"""

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span arrays of one iteration; span ids are positions in the arrays."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(sid)
        return traced

    def arrays(self) -> dict:
        """Columns of the span table; `name` indexes into `names`."""
        return {
            "names": np.asarray(self.names, dtype=str),
            "name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "run": np.full(len(self.start), self.run_id, dtype=np.int32),
        }


@contextmanager
def patched(module, attr: str, replacement):
    """Temporarily rebind a module global (restored even on error)."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


class SpanTable:
    """Per-span durations, self times and ancestry of one finished iteration."""

    def __init__(self, tracer: Tracer, root: int):
        self.names = tracer.names
        self.name_idx = np.frombuffer(tracer.name_idx, dtype=np.int32)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        if np.isnan(end).any():
            raise RuntimeError("a span was never finished")
        self.root = root
        self.duration = end - start
        n = self.duration.size
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                                 minlength=n)
        self.self_time = self.duration - child_time

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str) -> np.ndarray:
        return self.name_idx == self._id(name)

    def total(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum())

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def layer_self(self, layer: str) -> float:
        in_layer = np.array([n.split(".", 1)[0] == layer for n in self.names], dtype=bool)
        if not in_layer.any():
            return 0.0
        return float(self.self_time[in_layer[self.name_idx]].sum())

    def inside(self, ancestor: str) -> np.ndarray:
        """Spans that have a span called `ancestor` somewhere above them."""
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        direct = has_parent & (self.name_idx[parent] == self._id(ancestor))
        out = direct
        while True:   # one pass per level of nesting
            nxt = direct | (has_parent & out[parent])
            if np.array_equal(nxt, out):
                return out
            out = nxt

    def coverage(self) -> float:
        """Share of the root span's time covered by its direct children."""
        top = self.parent == self.root
        return float(self.duration[top].sum() / self.duration[self.root])
