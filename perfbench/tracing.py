"""Outside-in tracing of lttop's layers.

``install()`` replaces public functions of the ``lttop`` modules with
wrappers, from outside the program: no file of the package changes.  A
name bound elsewhere with ``from .x import y`` is replaced in every module
that holds it, so ``lattice.verify_heyting`` is also traced when
``lttop.omega`` calls it.

Wrappers come in three kinds:

* ``SPAN``: a span per call (name, start, end, parent span, request id);
* ``GEN``: the function returns a generator; every resumption is a span of
  the same name whose parent is the span that resumed it, and the items
  yielded are counted;
* ``COUNT``: hot tiny calls are counted only, with no span.

Spans are kept in memory in flat arrays and written out once, by
``dump()``, when the traced process ends.  ``summarize()`` turns a dump
into per-name calls, self time (span minus the time its direct child spans
cover) and the extra counters below.
"""

import json
import sys
import time
from array import array

SPAN, GEN, COUNT = "span", "gen", "count"

# (module, attribute, kind).  A class stands for its __init__.
TRACED = (
    ("cli", "main", SPAN),
    ("docio", "presheaf_from_doc", SPAN),
    ("docio", "subobject_from_doc", SPAN),
    ("docio", "fuzzyset_from_doc", SPAN),
    ("docio", "nucleus_from_doc", SPAN),
    ("fincat", "face", COUNT),
    ("presheaf", "FinitePresheaf", SPAN),
    ("presheaf", "enumerate_subpresheaves", SPAN),
    ("presheaf", "enumerate_morphisms", GEN),
    ("lattice", "FiniteHeytingAlgebra.from_leq", SPAN),
    ("lattice", "verify_heyting", SPAN),
    ("lattice", "enumerate_nuclei", SPAN),
    ("omega", "OmegaObject", SPAN),
    ("omega", "characteristic_function", SPAN),
    ("topology", "verify_topology", SPAN),
    ("topology", "enumerate_topologies", SPAN),
    ("closure", "closure_via_chi", SPAN),
    ("closure", "closure_recursive", SPAN),
    ("closure", "is_dense_via_closure", COUNT),
    ("closure", "classify", SPAN),
    ("closure", "presheaf_corpus", SPAN),
    ("closure", "factorization_check", SPAN),
    ("fuzzy", "subobjects_of", SPAN),
    ("fuzzy", "fuzzy_closure", COUNT),
    ("fuzzy", "pullback_fuzzy", COUNT),
    ("fuzzy", "verify_qclosure", SPAN),
    ("fuzzy", "classify_fuzzy", SPAN),
    ("fuzzy", "fuzzy_factorization_check", SPAN),
)


def span_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span arrays, counters and the stack of open spans for one process."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {}
        self.install_s = 0.0

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name_id):
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, after=None):
        nid = self.name_id(name)
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.count(calls)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def generator(self, name, fn):
        nid = self.name_id(name)
        calls, yielded = name + ".calls", name + ".yielded"

        def resume(gen):
            try:
                while True:
                    idx = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.count(yielded)
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            self.count(calls)
            return resume(fn(*args, **kwargs))

        return wrapper

    def counter(self, name, fn, after=None):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.count(calls)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "request": self.request_id,
            "names": self.names,
            "install_s": self.install_s,
            "counters": self.counters,
            "span_name": list(self.span_name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _after_hooks(tracer):
    """Counters read off results: yields of list-returning enumerators,
    sieve totals, topologies found, and dense tests."""

    def yielded(name):
        return lambda result, args: tracer.count(name + ".yielded", len(result))

    def sieves(result, args):
        tracer.count("omega.sieves", sum(len(level) for level in args[0].sieves))

    def found(result, args):
        tracer.count("topology.found", len(result))

    def dense(result, args):
        tracer.count("closure.dense_tested")
        tracer.count("closure.dense_found", int(bool(result)))

    return {
        "presheaf.enumerate_subpresheaves": yielded("presheaf.enumerate_subpresheaves"),
        "fuzzy.subobjects_of": yielded("fuzzy.subobjects_of"),
        "omega.OmegaObject": sieves,
        "topology.enumerate_topologies": found,
        "closure.is_dense_via_closure": dense,
    }


def install(request_id):
    """Wrap every function in TRACED inside the imported lttop package."""
    import lttop  # noqa: F401  (imports every module of the package)
    import lttop.cli

    began = time.perf_counter()
    tracer = Tracer(request_id)
    hooks = _after_hooks(tracer)
    modules = [m for n, m in list(sys.modules.items()) if n == "lttop" or n.startswith("lttop.")]
    for module_name, attr, kind in TRACED:
        module = sys.modules["lttop." + module_name]
        name = span_name(module_name, attr)
        after = hooks.get(name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, leaf)
        if isinstance(original, type):
            # a constructor: wrap __init__ in place, the class keeps its identity
            original.__init__ = tracer.span(name, original.__init__, after)
            continue
        if kind == SPAN:
            wrapper = tracer.span(name, original, after)
        elif kind == GEN:
            wrapper = tracer.generator(name, original)
        else:
            wrapper = tracer.counter(name, original, after)
        if owner_name:
            setattr(owner, leaf, staticmethod(wrapper))
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    tracer.install_s = time.perf_counter() - began
    return tracer


def summarize(doc):
    """Per-name calls and self time, plus the counters, of one dump.

    Self time is a span's duration minus the durations of its direct
    children.  ``topology.candidates`` counts the verify_topology spans that
    run inside an enumerate_topologies span.
    """
    names, parent = doc["names"], doc["parent"]
    duration = [e - s for s, e in zip(doc["start"], doc["end"])]
    child = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += duration[i]
    out = dict(doc["counters"])
    for nid, d, c in zip(doc["span_name"], duration, child):
        key = names[nid] + ".self_s"
        out[key] = out.get(key, 0.0) + d - c
    out["topology.candidates"] = 0
    if "topology.verify_topology" in names and "topology.enumerate_topologies" in names:
        verify = names.index("topology.verify_topology")
        enumerate_ = names.index("topology.enumerate_topologies")
        for nid, p in zip(doc["span_name"], parent):
            if nid != verify:
                continue
            while p >= 0 and doc["span_name"][p] != enumerate_:
                p = parent[p]
            out["topology.candidates"] += p >= 0
    out["trace.spans"] = len(duration)
    return out


def root_span(doc, name):
    """(start, end) of the first span with this name that has no parent."""
    nid = doc["names"].index(name)
    for n, start, end, parent in zip(doc["span_name"], doc["start"], doc["end"], doc["parent"]):
        if n == nid and parent < 0:
            return start, end
    raise ValueError(f"no root span named {name!r}")
