"""In-memory spans around the public functions of each semicp module.

A :class:`Tracer` wraps every public function, and every public method of a
public class, defined in the layer modules.  ``runner`` and ``unlabeled``
import names directly (``from .scores import ...``), so each wrapper is also
swapped into every semicp namespace that holds the original; intra-module
calls go through the module globals and are traced too.  Nothing in
``src/semicp`` changes: uninstalling restores every original object.

Spans are kept in memory as :class:`Span` records.  A span's self time is
its duration minus the union of its direct children's intervals; a layer's
self time is the sum over its spans.  :class:`Profile` reduces one repeat's
spans to the raw numbers the per-layer metrics are computed from.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

LAYERS = ("runner", "rng", "dataset", "scores", "unlabeled", "calibration",
          "metrics", "datagen", "dataio")

# the benchmark's own root span; its self time is outside every layer
ROOT = "bench.call"


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts")

    def __init__(self, name, layer, parent, start, end=0.0, counts=None):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.parent, self.start, self.end, self.counts]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rows(array):
    return int(getattr(array, "shape", (len(array),))[0])


# Work counted at a span, from the call's arguments and result.
COUNTERS = {
    "rng.permutation": lambda a, k, r: {"elems": int(_arg(a, k, 1, "n"))},
    "dataset.ProbabilityDataset.subset":
        lambda a, k, r: {"rows": len(_arg(a, k, 1, "indices"))},
    "scores.score_components_batch":
        lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "probs"))},
    "unlabeled.estimate_scores":
        lambda a, k, r: {"rows": len(_arg(a, k, 0, "unlabeled"))},
    "calibration.conformal_quantile":
        lambda a, k, r: {"rows": _rows(_arg(a, k, 0, "scores"))},
    "datagen.generate_synthetic":
        lambda a, k, r: {"rows": int(_arg(a, k, 0, "cfg").n_samples)},
    "dataio.load_dataset":
        lambda a, k, r: {"rows": len(r),
                         "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "dataio.save_dataset":
        lambda a, k, r: {"rows": len(_arg(a, k, 0, "dataset"))},
}


class Tracer:
    """Records spans while enabled; install() swaps wrappers into semicp."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.enabled = False
        self._stack = []
        self._clock = clock
        self._restore = []

    def call(self, name, layer, fn, counter, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(name, layer, self._stack[-1] if self._stack else -1,
                    self._clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def wrap(self, name, layer, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, counter, args, kwargs)
        return traced

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"semicp.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, layer, obj, COUNTERS.get(name))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer}.{attr}.{meth}"
                            self._swap(obj, meth, self.wrap(
                                name, layer, fn, COUNTERS.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semicp" and not mod_name.startswith("semicp."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._swap(module, attr, wrappers[obj])

    def _swap(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Total length covered by (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans, kids=None):
    """Each span's duration minus the union of its direct children."""
    kids = children_of(spans) if kids is None else kids
    return [span.duration - union_length(
        [(spans[c].start, spans[c].end) for c in kids[i]], span.start, span.end)
        for i, span in enumerate(spans)]


def tail_percentile(values, q, min_beyond=10):
    """Nearest-rank q-th percentile, or None when fewer than ``min_beyond``
    samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    if not ordered or len(ordered) - rank < min_beyond:
        return None
    return ordered[max(rank, 1) - 1]


class Profile:
    """Raw per-layer numbers of one traced repeat."""

    def __init__(self, spans, roots):
        kids = children_of(spans)
        selfs = self_times(spans, kids)
        self.total = sum(s.duration for s in spans if s.name == ROOT)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.durations = defaultdict(list)
        self.layer_self = defaultdict(float)
        self.same_layer_self = defaultdict(float)
        for i, span in enumerate(spans):
            self.calls[span.name] += 1
            self.seconds[span.name] += span.duration
            self.durations[span.name].append(span.duration)
            self.layer_self[span.layer] += selfs[i]
            for key, value in (span.counts or {}).items():
                self.counts[span.name][key] += value
            parent = spans[span.parent] if span.parent >= 0 else None
            if parent is None or parent.layer != span.layer:
                self.same_layer_self[span.name] += _same_layer(
                    spans, kids, selfs, i)
        root_spans = [i for i, s in enumerate(spans) if s.name in roots]
        covered = sum(spans[i].duration for i in root_spans)
        in_layers = sum(_subtree_self(spans, kids, selfs, i) for i in root_spans)
        self.accounted = in_layers / covered if covered > 0 else 0.0


def _same_layer(spans, kids, selfs, i):
    """Self time of span i plus its descendants reached through its layer."""
    total, todo = 0.0, [i]
    while todo:
        j = todo.pop()
        total += selfs[j]
        todo.extend(c for c in kids[j] if spans[c].layer == spans[i].layer)
    return total


def _subtree_self(spans, kids, selfs, i):
    """Self time inside layer code over the subtree rooted at span i."""
    total, todo = 0.0, [i]
    while todo:
        j = todo.pop()
        if spans[j].layer in LAYERS:
            total += selfs[j]
        todo.extend(kids[j])
    return total
