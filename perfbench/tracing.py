"""Spans around the public functions of each layer, for the traced run.

The wrappers live here, in the benchmark, so the program's own files
stay untouched: :func:`install` replaces each layer function by a
recording wrapper *wherever it was imported* (every ``repro.*`` module
attribute bound to the original object), which covers
``repro.core.mincover.implies`` as well as
``repro.core.implication.implies``.  Modules are reached through
``sys.modules`` because some package attributes shadow their submodule
(``repro.core.chase`` is the *function*).

A span records name, parent, request id, start, end, its active
duration and the part of that duration its child spans covered, so a
span's self time is ``duration - child``.  Generator functions
(``chase_with_instantiations``) are timed only while they run: the span
is pushed for each ``next()`` and popped when it yields, which keeps the
self times exact when the consumer does work between items.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

#: (module, function, span name).  Key functions of engine/keys.py share
#: one layer name.
FUNCTIONS = [
    ("repro.core.mincover", "min_cover", "core.mincover"),
    ("repro.core.implication", "implies", "core.implication"),
    ("repro.core.chase", "chase_with_instantiations", "core.chase"),
    ("repro.propagation.cover", "prop_cfd_spc_report", "propagation.cover"),
    ("repro.propagation.rbr", "rbr", "propagation.rbr"),
    ("repro.propagation.eqclasses", "compute_eq", "propagation.eqclasses"),
    ("repro.propagation.check", "find_counterexample", "propagation.check"),
    ("repro.propagation.spcu_cover", "prop_cfd_spcu", "propagation.spcu_cover"),
    ("repro.api.wire", "handle_request", "api.wire.handle_request"),
] + [
    ("repro.propagation.engine.keys", name, "engine.keys")
    for name in (
        "verdict_key",
        "cover_key",
        "scoped_sigma",
        "relation_fingerprints",
        "structural_view_key",
    )
]

#: Client-side wire functions (the served workloads' client process).
CLIENT_FUNCTIONS = [
    ("repro.api.wire", "request_to_json", "api.wire.encode"),
    ("repro.api.wire", "response_from_json", "api.wire.decode"),
]

#: (module, class, method, span name).
METHODS = [
    ("repro.propagation.engine.core", "PropagationEngine", "check_many", "engine.check_many"),
    ("repro.propagation.engine.core", "PropagationEngine", "cover_many", "engine.cover_many"),
    ("repro.kernel.chase", "PackedPairRunner", "find_violation", "kernel.chase"),
]

#: The span whose top-level occurrences delimit server requests: the
#: k-th one belongs to the k-th request on the connection.
REQUEST_SPAN = "api.wire.handle_request"

# Span record fields.
NAME, PARENT, RID, START, END, DUR, CHILD = range(7)


class Tracer:
    """In-memory span recorder (one stack per thread).

    ``rid`` is the request id given to top-level spans; an in-process
    loop sets it per op.  With ``count_requests`` the tracer numbers
    requests itself, advancing on every top-level :data:`REQUEST_SPAN`.
    """

    def __init__(self, count_requests: bool = False) -> None:
        self.spans: list[list] = []
        self.rid = -1
        self.count_requests = count_requests
        self._local = threading.local()
        self._clock = time.perf_counter

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_index, rid = parent[-1], parent[RID]
        else:
            parent_index = None
            if self.count_requests and name == REQUEST_SPAN:
                self.rid += 1
            rid = self.rid
        span = [name, parent_index, rid, None, None, 0.0, 0.0, len(self.spans)]
        self.spans.append(span)
        return span

    def resume(self, span: list) -> None:
        self._stack().append(span)
        now = self._clock()
        if span[START] is None:
            span[START] = now
        span[END] = now  # the running activation's start, until suspend

    def suspend(self, span: list) -> None:
        now = self._clock()
        active = now - span[END]
        span[DUR] += active
        span[END] = now
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][CHILD] += active

    def records(self) -> list[list]:
        return [span[:7] for span in self.spans]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.records(), handle)


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            span = tracer.open(name)
            return _drive(tracer, span, fn(*args, **kwargs))

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        tracer.resume(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.suspend(span)

    return traced


def _drive(tracer: Tracer, span: list, generator):
    try:
        while True:
            tracer.resume(span)
            try:
                item = next(generator)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.suspend(span)
            yield item
    finally:
        generator.close()


class Installation:
    """The wrappers :func:`install` put in place, and how to undo them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, functions=FUNCTIONS, methods=METHODS) -> Installation:
    """Wrap every listed layer function at every import site."""
    for module_name in {f[0] for f in functions} | {m[0] for m in methods}:
        importlib.import_module(module_name)
    importlib.import_module("repro.cli")  # binds every import site
    installed = Installation()
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module_name, attr, span_name in functions:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    installed.replace(module, key, wrapper)
    for module_name, class_name, method, span_name in methods:
        owner = getattr(sys.modules[module_name], class_name)
        installed.replace(owner, method, _wrap(tracer, span_name, getattr(owner, method)))
    return installed


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------


def by_layer(records, rids) -> dict[str, dict]:
    """Per span name over the requests in *rids*: calls, total and self ms."""
    wanted = set(rids)
    out: dict[str, dict] = {}
    for record in records:
        if record[RID] not in wanted:
            continue
        entry = out.setdefault(record[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += record[DUR] * 1000.0
        entry["self_ms"] += (record[DUR] - record[CHILD]) * 1000.0
    return out


def self_ms_by_request(records) -> dict[int, float]:
    """Summed self time of every span of each request, in ms."""
    out: dict[int, float] = {}
    for record in records:
        out[record[RID]] = out.get(record[RID], 0.0) + (record[DUR] - record[CHILD]) * 1000.0
    return out
