"""Layer spans recorded from outside the library.

``Tracer.install()`` replaces every public function of each ``hatlab.*``
module, in every ``hatlab.*`` namespace that binds it by name, with a wrapper
that records a span charged to the module that defined the function.  A
module that did ``from .cosets import is_primitive`` therefore reaches the
wrapper too.  A few class methods are wrapped as well (``CLASS_METHODS``),
and ``Permutation.__mul__`` / ``Permutation.inverse`` are counted without a
span, because a span on each of about a million products would swamp the
run.  ``uninstall()`` puts every original back.

Attribution rules:

- Stabilizer chains are built lazily, so a chain build is charged to
  whichever wrapped query (``order``, ``__contains__``, ...) triggers it.
- ``PermutationGroup.elements`` and ``SymNormalizerData.automorphisms``
  return generators.  The span covers only the call that returns the
  generator; the time spent iterating it is charged to the caller.

Spans (layer, start, end, parent) are kept in memory in flat arrays and
written out at the end of the run.  A layer's self time is the duration of
its spans minus the duration of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter

LAYERS = (
    "group", "cosets", "normalizers", "fpgroups", "graphs", "graphauto",
    "symmetry", "altcycles", "signatures", "pairsearch", "examples",
)

# (module, class, method) wrapped with a span charged to the module.
CLASS_METHODS = (
    ("group", "PermutationGroup", "order"),
    ("group", "PermutationGroup", "__contains__"),
    ("group", "PermutationGroup", "point_stabilizer"),
    ("group", "PermutationGroup", "from_generator_stream"),
    ("group", "PermutationGroup", "elements"),
    ("cosets", "CosetSpace", "__init__"),
    ("fpgroups", "CosetTable", "evaluate"),
    ("normalizers", "SymNormalizerData", "automorphisms"),
)

COUNTED_METHODS = (("mul_calls", "__mul__"), ("inverse_calls", "inverse"))


def _hatlab_modules():
    import hatlab

    mods = [hatlab]
    for info in pkgutil.iter_modules(hatlab.__path__):
        mods.append(importlib.import_module("hatlab." + info.name))
    return mods


class Tracer:
    def __init__(self):
        self.on = False
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.self_s = [0.0] * len(LAYERS)   # of the current task
        self.task_self_s = {}               # task name -> self_s list
        self.calls = [0] * len(LAYERS)
        self.fn_calls = Counter()       # "layer.function" -> calls
        self.counts = Counter()         # counters read from results
        self.perm_counts = Counter()
        self.top_level_s = 0.0          # time covered by root spans
        self._stack = []                # [span id, start, child seconds]
        self._undo = []

    # -- recording -------------------------------------------------------

    def _span(self, layer, qualname, fn, after=None):
        lid = self.layer_ids[layer]
        key = layer + "." + qualname

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            frame[1] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self.self_s[lid] += dur - frame[2]
                self.calls[lid] += 1
                self.fn_calls[key] += 1
                if stack:
                    stack[-1][2] += dur
                else:
                    self.top_level_s += dur
            if after is not None:
                result = after(result)
            return result

        return wrapped

    def _counted(self, name, fn):
        counts = self.perm_counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def start_task(self, name):
        """Charge the self time of the spans that follow to task ``name``."""
        self.self_s = self.task_self_s.setdefault(name, [0.0] * len(LAYERS))

    # -- counters read from public results --------------------------------

    def _after_todd_coxeter(self, table):
        if self.on:
            log = table.collapse_log
            self.counts["fpgroups.cosets_defined"] += log["defined"]
            self.counts["fpgroups.cosets_live"] += log["live"]
        return table

    def _after_pair_search(self, outcome):
        if self.on:
            st = outcome.stats
            self.counts["pairsearch.candidates"] += st["candidates"]
            self.counts["pairsearch.h_tried"] += st["hTried"]
            self.counts["pairsearch.h_accepted"] += st["hAccepted"]
        return outcome

    def _after_automorphisms(self, gen):
        def counting():
            for alpha in gen:
                if self.on:
                    self.counts["normalizers.sym_automorphisms"] += 1
                yield alpha

        return counting()

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the library in place; uninstall() undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        after = {
            ("fpgroups", "todd_coxeter"): self._after_todd_coxeter,
            ("pairsearch", "maximal_half_arc_pairs"): self._after_pair_search,
            ("normalizers", "automorphisms"): self._after_automorphisms,
        }
        mods = _hatlab_modules()
        by_name = {m.__name__: m for m in mods}
        wrappers = {}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                # public by its own name: pairsearch binds cosets.coset_canonical
                # as _coset_canonical
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("hatlab.") or layer not in self.layer_ids:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = self._span(layer, obj.__name__, obj, after.get((layer, obj.__name__)))
                    wrappers[id(obj)] = w
                self._undo.append((mod, name, obj))
                setattr(mod, name, w)
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(by_name["hatlab." + layer], cls_name)
            raw = cls.__dict__[meth]
            hook = after.get((layer, meth))
            if isinstance(raw, classmethod):
                new = classmethod(self._span(layer, cls_name + "." + meth, raw.__func__, hook))
            else:
                new = self._span(layer, cls_name + "." + meth, raw, hook)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
        perm_cls = by_name["hatlab.perm"].Permutation
        for counter, meth in COUNTED_METHODS:
            raw = perm_cls.__dict__[meth]
            self._undo.append((perm_cls, meth, raw))
            setattr(perm_cls, meth, self._counted(counter, raw))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self):
        return len(self.span_start)

    def layer_metrics(self):
        out = {}
        for name, lid in self.layer_ids.items():
            out[name + ".self_s"] = sum(t[lid] for t in self.task_self_s.values())
            out[name + ".calls"] = self.calls[lid]
        return out

    def task_shares(self, task_seconds):
        """Per task, each layer's percentage of the task's traced time."""
        return {
            task: {name: 100.0 * self_s[lid] / task_seconds[task]
                   for name, lid in self.layer_ids.items() if self_s[lid]}
            for task, self_s in self.task_self_s.items()
        }

    def write(self, path, extra):
        """Write every span and the aggregates as one JSON document."""
        doc = dict(extra)
        doc["layers"] = list(LAYERS)
        doc["span_fields"] = ["layer", "start_s", "end_s", "parent"]
        doc["spans"] = [
            [LAYERS[lid], s, e, p]
            for lid, s, e, p in zip(self.span_layer, self.span_start, self.span_end, self.span_parent)
        ]
        doc["function_calls"] = dict(sorted(self.fn_calls.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def calibrate_overhead(samples=20000):
    """Seconds of tracing cost per span and per counted call, measured on a
    no-op function against the same function unwrapped."""

    def noop():
        return None

    probe = Tracer()
    span = probe._span("group", "noop", noop)
    counted = probe._counted("noop", noop)
    probe.on = True

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        return (time.perf_counter() - t0) / samples

    base = min(per_call(noop) for _ in range(3))
    per_span = min(per_call(span) for _ in range(3)) - base
    per_count = min(per_call(counted) for _ in range(3)) - base
    return max(per_span, 0.0), max(per_count, 0.0)
