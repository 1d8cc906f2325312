"""In-memory span tracer for the ppshift benchmark.

Spans are recorded at layer boundaries by wrapping public ppshift
functions from the benchmark's side: the library itself is not
modified. Each span keeps its name, start, end, parent span and pass id
in flat arrays (a traced roster pass records on the order of 10^6
spans, so per-span objects would dominate memory). The spans are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable

COLUMNS = (("name", "i"), ("parent", "i"), ("pass_id", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.counters: dict[str, int] = {}
        self.pass_id = 0
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.cols["start"])

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span and return its index."""
        idx = len(self)
        c = self.cols
        c["name"].append(self.name_id(name))
        c["parent"].append(parent)
        c["pass_id"].append(self.pass_id)
        c["start"].append(start)
        c["end"].append(end)
        return idx

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str, label: Callable | None = None,
             on_result: Callable | None = None) -> Callable:
        """A stand-in for fn that records one span per call.

        label(*args, **kwargs) may give a per-call span name; on_result(tracer,
        result) may add counters from the returned value.
        """
        cols = self.cols
        names, starts, ends, parents, passes = (
            cols["name"], cols["start"], cols["end"], cols["parent"], cols["pass_id"])
        stack = self._stack
        clock = time.perf_counter
        fixed_id = self.name_id(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(self.name_id(label(*args, **kwargs)) if label else fixed_id)
            parents.append(stack[-1])
            passes.append(self.pass_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path, meta: dict) -> None:
        """One JSON header line, then each column's raw bytes in COLUMNS order."""
        header = {
            "meta": meta,
            "names": self.names,
            "count": len(self),
            "columns": [[col, code] for col, code in COLUMNS],
            "counters": self.counters,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for col, _ in COLUMNS:
                self.cols[col].tofile(fh)


def load(path) -> tuple[dict, "Tracer"]:
    """Read a file written by Tracer.dump back into a Tracer."""
    tracer = Tracer()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            tracer.name_id(name)
        for col, code in header["columns"]:
            tracer.cols[col] = array(code)
            tracer.cols[col].fromfile(fh, header["count"])
    tracer.counters = dict(header["counters"])
    return header, tracer


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    total_s: float  # summed span durations (inclusive of children)
    self_s: float  # durations minus the time covered by direct child spans


def layer_totals(tracer: Tracer) -> dict[str, LayerTotals]:
    """Per-name call count, inclusive time and self time.

    Spans nest strictly in this single-threaded program, so the time a
    span's children cover is the sum of its direct children's durations.
    """
    c = tracer.cols
    n = len(tracer)
    dur = array("d", map(float.__sub__, c["end"], c["start"]))
    child = array("d", bytes(8 * n))
    parents = c["parent"]
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(tracer.names)
    total = [0.0] * len(tracer.names)
    own = [0.0] * len(tracer.names)
    names = c["name"]
    for i in range(n):
        nid = names[i]
        calls[nid] += 1
        total[nid] += dur[i]
        own[nid] += dur[i] - child[i]
    return {
        name: LayerTotals(calls[i], total[i], own[i])
        for i, name in enumerate(tracer.names)
        if calls[i]
    }


@dataclass(frozen=True)
class Target:
    """A public function to trace: `owner` is a module name relative to
    ppshift, or "module:Class" for a method."""

    owner: str
    attr: str
    span: str
    label: Callable | None = None
    on_result: Callable | None = None


def install(tracer: Tracer, modules: dict, targets) -> Callable[[], None]:
    """Replace each target in every ppshift namespace that holds it.

    `modules` maps names such as "eigen" to loaded ppshift modules.
    Modules bind imported functions under their own names
    (`from .poly import eval_table`), so every module dict is searched
    for the original object. Returns a function that restores them all.
    """
    restore = []
    for t in targets:
        mod_name, _, cls_name = t.owner.partition(":")
        owner = modules[mod_name]
        if cls_name:
            owner = getattr(owner, cls_name)
            orig = owner.__dict__[t.attr]
            wrapped = tracer.wrap(orig, t.span, t.label, t.on_result)
            setattr(owner, t.attr, wrapped)
            restore.append((owner, t.attr, orig))
            continue
        orig = getattr(owner, t.attr)
        wrapped = tracer.wrap(orig, t.span, t.label, t.on_result)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    restore.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(restore):
            setattr(owner, key, orig)

    return uninstall
