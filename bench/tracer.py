"""Spans around sgclass's public functions, installed from the benchmark.

Each public function of a layer module is replaced, in every namespace that
binds it, by a wrapper that records a span: name, start, end and the index of
the enclosing span.  ``canonical_generator_sets`` gets one span per ``next()``.
Spans live in flat arrays while the run lasts and are summarised, and written
out, when it ends.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter_ns

LAYERS = ("semigroups", "ideals", "domains", "graded", "quadric", "suites", "cli")

# Per-element helpers: a span would cost more than the call it measures.
# Their time lands in the caller's self time.
SKIP = frozenset({
    "suites.oracle_member", "suites.oracle_sum_member",
    "suites.oracle_colon_member", "suites.oracle_inverse_member",
    "suites.oracle_v_member",
    "quadric.one", "quadric.x_pow", "quadric.y_pow", "quadric.z_pow",
    "quadric.from_terms", "quadric.in_subring",
    "graded.graded_element", "graded.monomial", "graded.zero",
    "graded.in_monoid_ring", "graded.content",
})

# Methods the jobs call directly.
METHODS = (("domains", "ClassGroup", "structure"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.forms_in_class_groups = 0

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def close(self, idx: int):
        self.span_end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid, open_, close = self.name_id(name), self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    def wrap_generator(self, name: str, fn):
        nid, open_, close = self.name_id(name), self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = open_(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item
            return steps()
        return traced

    # --- summaries ---------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, self time in ns]."""
        n = len(self.span_name)
        child = [0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list[int]] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.span_name[i]], [0, 0])
            entry[0] += 1
            entry[1] += end[i] - start[i] - child[i]
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` directly inside one named ``parent_name``."""
        pid = self.name_ids.get(parent_name)
        cid = self.name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for i in range(len(names))
                   if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid)

    def write(self, path):
        """One JSON header line, then the four arrays as raw native-endian bytes."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for values in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                values.tofile(fh)


def install(tracer: Tracer, package, layers: dict) -> None:
    """Wrap every public function of each layer module, everywhere it is bound."""
    wrappers = {}
    for layer, module in layers.items():
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in SKIP or inspect.isclass(value) \
                    or not callable(value) \
                    or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isgeneratorfunction(value):
                wrappers[id(value)] = (value, tracer.wrap_generator(name, value))
            elif name == "domains.class_group":
                wrappers[id(value)] = (value, _counting_forms(tracer, name, value))
            else:
                wrappers[id(value)] = (value, tracer.wrap(name, value))
    for layer, cls_name, method in METHODS:
        cls = getattr(layers[layer], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}",
                                         getattr(cls, method)))

    def rebind(namespace: dict):
        for key, value in list(namespace.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]

    for module in [package, *layers.values()]:
        rebind(vars(module))
    rebind(layers["suites"].SUITES)


def _counting_forms(tracer: Tracer, name: str, fn):
    traced = tracer.wrap(name, fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        group = traced(*args, **kwargs)
        tracer.forms_in_class_groups += group.order
        return group
    return counted


def layer_metrics(tracer: Tracer, job_ns: int, hit_ratio: dict,
                  examined: int) -> dict:
    """The per-layer metrics, from the spans of a traced run."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0))[0]

    def self_s(name):
        return totals.get(name, (0, 0))[1] / 1e9

    m = {}
    for name in ("semigroups.from_generators", "ideals.colon",
                 "ideals.minkowski_sum", "ideals.ideal_from_generators",
                 "domains.compose", "domains.mul", "domains.ideal_from_generators",
                 "domains.colon", "domains.is_principal", "graded.extract_pair",
                 "graded.homogeneous_membership", "graded.dedekind_mertens_exponent",
                 "graded.pair_colon"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("ideals.v_closure", "ideals.is_t_invertible",
                 "graded.decompose_class", "cli.run"):
        m[f"{name}.calls"] = calls(name)
    for name in ("domains.class_group", "domains.reduced_forms",
                 "quadric.verify_unit_identity"):
        m[f"{name}.self_s"] = self_s(name)
    m["ideals.enumerate.calls"] = calls("ideals.canonical_generator_sets")
    m["ideals.enumerate.self_s"] = self_s("ideals.canonical_generator_sets")
    m["ideals.sweep.examined"] = examined
    tested = tracer.child_calls("ideals.search_nonprincipal_t_invertible",
                                "ideals.is_t_invertible")
    m["ideals.sweep.nonprincipal_ratio"] = tested / examined if examined else 0.0
    m["semigroups.member_bits_cache.hit_ratio"] = hit_ratio["member_bits"]
    m["ideals.unit_ideal_cache.hit_ratio"] = hit_ratio["unit_ideal"]
    forms = tracer.forms_in_class_groups
    m["domains.compose.calls_per_form"] = \
        calls("domains.compose") / forms if forms else 0.0
    for layer in LAYERS:
        entries = [v for k, v in totals.items() if k.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(v[0] for v in entries)
        m[f"{layer}.self_s"] = sum(v[1] for v in entries) / 1e9
        m[f"{layer}.share"] = sum(v[1] for v in entries) / job_ns
    m["trace.spans"] = len(tracer.span_name)
    return m
