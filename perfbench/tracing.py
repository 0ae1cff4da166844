"""Outside-in tracing of orbindex, installed from the benchmark's own files.

Every wrapped function is replaced at every binding: each ``orbindex``
module whose namespace holds the original object gets the wrapper, so
``enumerate_sectors`` is seen whether it is reached through
``orbindex.sectors``, ``orbindex.engine`` or ``orbindex.cli``.  Methods are
patched on their class.

A wrapped call records a span: name, start, end, parent span and op id.
Spans stay in memory and are written out by ``write_spans`` at the end.  A
span's self time is its duration minus the time covered by its children.

Two leaf layers are called tens of thousands of times per op: ``Cyclo``
arithmetic and conjugacy-class membership tests.  They are accounted as leaf
timers instead of spans: each call is counted, the outermost call of a nested
chain is timed, and that time is charged to the enclosing span as child time.
They call nothing else that is wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from orbindex import char, cli, engine, exactnum, group_algebra, groups, heat, oracle, sectors

_now = time.perf_counter_ns

# (module, attribute) pairs wrapped as spans; the metric prefix is
# "<module>.<attribute>".
SPAN_FUNCTIONS = (
    (cli, "load_model"), (cli, "write_report"),
    (sectors, "enumerate_sectors"), (sectors, "cryst_fixed_classes"),
    (sectors, "build_cutoff"), (sectors, "cutoff_on_fixed_set_direct"),
    (sectors, "fixed_set_cutoff"), (sectors, "translation_class"),
    (sectors, "induced_torus_model"),
    (engine, "component_value"), (engine, "sum_identity"), (engine, "kawasaki_index"),
    (engine, "localized_index"), (engine, "equivariant_lefschetz"),
    (engine, "finite_assembly"),
    (char, "todd_form"), (char, "a_hat_form"), (char, "deloc_chern"),
    (char, "orbifold_integrate"), (char, "chern_char"), (char, "exp_line"),
    (oracle, "sphere_equivariant_character"), (oracle, "torus_invariant_index"),
    (oracle, "sphere_invariant_monomial_count"),
    (groups, "centralizer"), (groups, "enumerate_classes_finite"),
    (group_algebra, "convolve"), (group_algebra, "localized_trace"),
    (heat, "g_heat_trace"), (heat, "t_independence"), (heat, "mckean_singer_compare"),
    (heat, "orbital_integral_euclidean"),
)

# Methods that count as Cyclo arithmetic or comparison.
CYCLO_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__",
                 "conjugate", "promote", "__eq__", "is_zero")


class Recorder:
    """Spans in parallel arrays, leaf timers and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.leaf_ns = array("q")      # leaf time charged to each span
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.leaf_total_ns: Counter = Counter()
        self.leaf_depth = 0
        self.heat_depth = 0
        self.max_order = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.leaf_ns.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self.stack.pop()

    def charge_leaf(self, layer: str, dt: int) -> None:
        self.leaf_total_ns[layer] += dt
        if self.stack:
            self.leaf_ns[self.stack[-1]] += dt

    # -- aggregation --------------------------------------------------------

    def self_times_ns(self) -> Counter:
        child = [0] * len(self.name)
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(len(self.name)):
            dur = self.end[i] - self.start[i]
            out[self.names[self.name[i]]] += dur - child[i] - self.leaf_ns[i]
        return out

    def span_calls(self) -> Counter:
        return Counter(self.names[n] for n in self.name)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({"id": i, "name": self.names[self.name[i]],
                                     "start_ns": self.start[i], "end_ns": self.end[i],
                                     "parent": self.parent[i], "op": self.op[i]}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts),
                                 "leaf_ns": dict(self.leaf_total_ns),
                                 "max_order": self.max_order}) + "\n")


class Tracer:
    """Installs and removes the wrappers; one instance per traced run."""

    def __init__(self):
        self.rec = Recorder()
        self._undo: list = []

    # -- wrapper factories --------------------------------------------------

    def _span(self, fn, name: str):
        rec = self.rec
        nid = rec.name_id(name)
        is_heat = name.startswith("heat.")

        def wrapper(*args, **kwargs):
            idx = rec.begin(nid)
            if is_heat:
                rec.heat_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if is_heat:
                    rec.heat_depth -= 1
                rec.finish(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _elements_in_ball(self, fn):
        span = self._span(fn, "groups.elements_in_ball")
        counts = self.rec.counts

        def wrapper(*args, **kwargs):
            out = span(*args, **kwargs)
            counts["groups.elements_in_ball.elements"] += len(out)
            return out
        return wrapper

    def _cyclo(self, fn, method: str):
        rec = self.rec
        counts = rec.counts
        key = f"exactnum.cyclo.{method}"

        def wrapper(self_, *args, **kwargs):
            counts[key] += 1
            order = self_.order
            if order > rec.max_order:
                rec.max_order = order
            if rec.leaf_depth:
                return fn(self_, *args, **kwargs)
            rec.leaf_depth = 1
            t0 = _now()
            try:
                return fn(self_, *args, **kwargs)
            finally:
                rec.leaf_depth = 0
                rec.charge_leaf("exactnum.cyclo", _now() - t0)
        return wrapper

    def _contains(self, fn):
        rec = self.rec
        counts = rec.counts

        def wrapper(self_, h):
            counts["groups.class_contains.calls"] += 1
            if rec.heat_depth:
                counts["heat.class_contains.calls"] += 1
            rec.leaf_depth += 1
            t0 = _now()
            try:
                hit = fn(self_, h)
            finally:
                rec.leaf_depth -= 1
                rec.charge_leaf("groups.class_contains", _now() - t0)
            if hit:
                counts["groups.class_contains.hits"] += 1
                if rec.heat_depth:
                    counts["heat.class_contains.hits"] += 1
            return hit
        return wrapper

    def _coset_section(self, fn):
        rec = self.rec
        nid = rec.name_id("groups.coset_section")
        counts = rec.counts

        def wrapper(self_):
            gen = fn(self_)

            def resumed():
                # each resumption is one span, so the time spent producing an
                # element lands on the section, not on the consumer
                while True:
                    idx = rec.begin(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.finish(idx)
                    counts["groups.coset_section.yielded"] += 1
                    yield item
            return resumed()
        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, orig, replacement) -> None:
        """Replace every module-level binding of ``orig`` inside orbindex."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "orbindex" or modname.startswith("orbindex.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def _patch(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        for mod, attr in SPAN_FUNCTIONS:
            orig = getattr(mod, attr)
            self._rebind(orig, self._span(orig, f"{mod.__name__.split('.')[-1]}.{attr}"))
        crg = groups.CrystGroup
        self._patch(crg, "elements_in_ball", self._elements_in_ball(crg.elements_in_ball))
        handle = groups.ConjugacyClassHandle
        self._patch(handle, "contains", self._contains(handle.contains))
        self._patch(handle, "coset_section", self._coset_section(handle.coset_section))
        for_model = heat.QuadratureSpec.__dict__["for_model"].__func__
        self._patch(heat.QuadratureSpec, "for_model",
                    staticmethod(self._span(for_model, "heat.for_model")))
        for method in CYCLO_METHODS:
            self._patch(exactnum.Cyclo, method,
                        self._cyclo(exactnum.Cyclo.__dict__[method], method))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit, better); computed by ``layer_metrics``.
PER_LAYER = (
    ("cli.load_model.self_ms", "ms", "lower"),
    ("cli.write_report.self_ms", "ms", "lower"),
    ("sectors.enumerate_sectors.calls", "count", "lower"),
    ("sectors.enumerate_sectors.self_ms", "ms", "lower"),
    ("sectors.cryst_fixed_classes.self_ms", "ms", "lower"),
    ("sectors.build_cutoff.self_ms", "ms", "lower"),
    ("sectors.cutoff_on_fixed_set_direct.self_ms", "ms", "lower"),
    ("engine.component_value.calls", "count", "lower"),
    ("engine.component_value.self_ms", "ms", "lower"),
    ("engine.sum_identity.self_ms", "ms", "lower"),
    ("engine.kawasaki_index.calls", "count", "lower"),
    ("engine.localized_index.calls", "count", "lower"),
    ("engine.equivariant_lefschetz.calls", "count", "lower"),
    ("engine.equivariant_lefschetz.self_ms", "ms", "lower"),
    ("engine.finite_assembly.self_ms", "ms", "lower"),
    ("char.todd_form.self_ms", "ms", "lower"),
    ("char.a_hat_form.self_ms", "ms", "lower"),
    ("char.deloc_chern.self_ms", "ms", "lower"),
    ("char.orbifold_integrate.self_ms", "ms", "lower"),
    ("oracle.sphere_equivariant_character.self_ms", "ms", "lower"),
    ("oracle.torus_invariant_index.self_ms", "ms", "lower"),
    ("exactnum.cyclo_ops", "count", "lower"),
    ("exactnum.cyclo_inverse.calls", "count", "lower"),
    ("exactnum.cyclo.self_ms", "ms", "lower"),
    ("exactnum.max_order", "order", "lower"),
    ("groups.elements_in_ball.calls", "count", "lower"),
    ("groups.elements_in_ball.elements", "count", "lower"),
    ("groups.elements_in_ball.self_ms", "ms", "lower"),
    ("groups.class_contains.calls", "count", "lower"),
    ("groups.class_contains.hits", "count", "lower"),
    ("groups.class_contains.self_ms", "ms", "lower"),
    ("groups.coset_section.yielded", "count", "lower"),
    ("groups.coset_section.self_ms", "ms", "lower"),
    ("groups.centralizer.calls", "count", "lower"),
    ("group_algebra.convolve.self_ms", "ms", "lower"),
    ("group_algebra.localized_trace.self_ms", "ms", "lower"),
    ("heat.g_heat_trace.calls", "count", "lower"),
    ("heat.g_heat_trace.self_ms", "ms", "lower"),
    ("heat.members_kept_ratio", "ratio", "higher"),
    ("heat.for_model.self_ms", "ms", "lower"),
    ("heat.mckean_singer_compare.self_ms", "ms", "lower"),
    ("heat.orbital_integral_euclidean.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(rec: Recorder, n_ops: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric, per op averaged over the traced ops, except
    the ratios and the largest field order, which are over the whole run."""
    self_ns = rec.self_times_ns()
    for layer, ns in rec.leaf_total_ns.items():
        self_ns[layer] += ns
    calls = rec.span_calls()
    calls["groups.class_contains"] = rec.counts["groups.class_contains.calls"]
    cyclo_ops = sum(v for k, v in rec.counts.items() if k.startswith("exactnum.cyclo."))
    heat_calls = rec.counts["heat.class_contains.calls"]
    whole_run = {
        "exactnum.max_order": float(rec.max_order),
        "heat.members_kept_ratio": (rec.counts["heat.class_contains.hits"] / heat_calls
                                    if heat_calls else 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    per_op_counts = {
        "exactnum.cyclo_ops": cyclo_ops,
        "exactnum.cyclo_inverse.calls": rec.counts["exactnum.cyclo.inverse"],
        "groups.elements_in_ball.elements": rec.counts["groups.elements_in_ball.elements"],
        "groups.class_contains.hits": rec.counts["groups.class_contains.hits"],
        "groups.coset_section.yielded": rec.counts["groups.coset_section.yielded"],
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in whole_run:
            value = whole_run[name]
        elif name in per_op_counts:
            value = per_op_counts[name] / n_ops
        elif name.endswith(".self_ms"):
            value = self_ns[name[:-len(".self_ms")]] / 1e6 / n_ops
        else:
            value = calls[name[:-len(".calls")]] / n_ops
        out[name] = {"value": value, "unit": unit}
    return out
