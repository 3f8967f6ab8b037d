"""Span and counter recorder that wraps singmod's public functions from outside.

Nothing in the package is edited: `rebind` replaces every module-level
binding of a target function (the defining module and every module that
imported it by name) with a `wrap`per that opens a span, calls the original
and closes the span.  Hooks attached to a target add counts at the same
boundary; layers.py says which functions are targets.

A span is (name, start, end, parent index, instance id).  Spans are kept in
memory and written out by the caller when the run ends.  A layer's self time
is its span duration minus the durations of its direct children; spans are
strictly nested because the traced code is single threaded.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, INSTANCE = range(5)
# the root span the benchmark opens around each instance
INSTANCE_SPAN = "bench.instance"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.info: dict[int, dict] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.instance = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def ancestor(self, prefix: str) -> int | None:
        """Innermost open span whose name starts with prefix."""
        for idx in reversed(self.stack):
            if self.spans[idx][NAME].startswith(prefix):
                return idx
        return None

    def span_info(self, idx: int) -> dict:
        return self.info.setdefault(idx, {})

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": self.spans}, fh)


def self_times(spans) -> dict[str, float]:
    """Self time summed per span name: duration less the direct children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, own):
        out[span[NAME]] += value
    return dict(out)


def wrap(tracer: Tracer, fn, name, pre=None, post=None):
    """A wrapper recording one span per call and `name.calls`.

    name is a string or a function of the call arguments.  pre(tracer, idx,
    args, kwargs) runs inside the span before the call and returns a state;
    post(tracer, idx, state, args, kwargs, result, error) runs after it,
    error being the exception raised or None.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        tracer.counts[label + ".calls"] += 1
        idx = tracer.open(label)
        state = pre(tracer, idx, args, kwargs) if pre else None
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            tracer.close(idx)
            if post:
                post(tracer, idx, state, args, kwargs, None, err)
            raise
        tracer.close(idx)
        if post:
            post(tracer, idx, state, args, kwargs, result, None)
        return result

    return wrapper


def rebind(original, replacement, package: str = "singmod") -> int:
    """Replace every module-level binding of `original` in the package.

    Returns the number of bindings replaced.
    """
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count
