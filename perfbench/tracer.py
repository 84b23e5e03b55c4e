"""Span tracer for the traced run, installed from outside the package.

nodallab resolves its calls through module globals at call time, so replacing
module attributes with wrappers also records nested calls such as
construct_uk -> psi -> minimize_arc and eval_Nt -> eval_H / eval_Dt.  Field
evaluations are traced by wrapping ``__call__`` and ``grad`` in the own
``__dict__`` of every PlanarField subclass.  Spans stay in memory and are
written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# params holds only sub-microsecond closed forms and recurrences: untraced
LAYERS = ("cli", "fields", "construct", "functionals", "orders", "nodal")
FIELD_METHODS = {"__call__": "fields.value", "grad": "fields.grad"}
# each call of these runs exactly one disk (bulk) quadrature
BULK_QUADRATURES = ("functionals.eval_Dt", "functionals.eval_Phi",
                    "functionals.h1_norm", "functionals.w_prime_rhs")


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _points(args, kwargs, result):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _bulk_key(args, kwargs, result):
    x0 = np.asarray(_arg(args, kwargs, 1, "x0"), dtype=float)
    return (id(args[0]), float(x0[0]), float(x0[1]), float(_arg(args, kwargs, 2, "r")))


# per-span data taken from a successful call's arguments and result
PROBES = {
    "fields.value": _points,
    "fields.grad": _points,
    "construct.hamiltonian_cauchy": lambda a, kw, r: int(_arg(a, kw, 4, "steps")),
    "nodal.extract_nodal_set": lambda a, kw, r: (int(_arg(a, kw, 1, "n")), len(r.segments)),
    **{name: _bulk_key for name in BULK_QUADRATURES},
}


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "t0", "t1", "err", "info", "nested")

    def __init__(self, sid, parent, name, layer, nested):
        self.sid, self.parent, self.name, self.layer = sid, parent, name, layer
        self.nested = nested  # a span of the same name is open around this one
        self.t0 = self.t1 = 0.0
        self.err = False
        self.info = None


class Tracer:
    """Wraps the layer modules' functions; records spans while ``active``."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"nodallab.{name}") for name in LAYERS}
        self.planar = self.modules["fields"].PlanarField
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[Span] = []
        self._undo = []

    # -------------------------------------------------------------- install

    def install(self):
        layer_of = {mod.__name__: layer for layer, mod in self.modules.items()}
        wrappers = {}
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in layer_of:
                    # names imported by value (orders.eval_H) share one wrapper
                    if obj not in wrappers:
                        home = layer_of[obj.__module__]
                        wrappers[obj] = self._wrap(f"{home}.{obj.__name__}", home, obj)
                    self._replace(mod, attr, wrappers[obj])
                elif (inspect.isclass(obj) and issubclass(obj, self.planar)
                      and obj is not self.planar and obj.__module__ == mod.__name__):
                    for meth, name in FIELD_METHODS.items():
                        if meth in vars(obj):
                            self._replace(obj, meth, self._wrap(name, "fields", vars(obj)[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name, layer, fn):
        probe = PROBES.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), stack[-1].sid if stack else None, name, layer,
                        any(s.name == name for s in stack))
            self.spans.append(span)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.err = True
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- analysis

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                     "start": s.t0, "end": s.t1, "error": s.err}) + "\n")

    def check_arc_counts(self):
        """Each successful construct_uk makes two arc solves per matching step
        plus the final pair: minimize_arc == 2 psi + 2.  Returns the violations."""
        counts = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            if s.name in ("construct.minimize_arc", "construct.psi"):
                p = s.parent
                while p is not None and self.spans[p].name != "construct.construct_uk":
                    p = self.spans[p].parent
                if p is not None:
                    counts[p][s.name] += 1
        bad = []
        for s in self.spans:
            if s.name == "construct.construct_uk" and not s.err:
                c = counts[s.sid]
                if c["construct.minimize_arc"] != 2 * c["construct.psi"] + 2:
                    bad.append(f"construct_uk span {s.sid}: {c['construct.minimize_arc']} arc "
                               f"solves for {c['construct.psi']} matching steps")
        return bad

    def metrics(self, traced_wall, untraced_wall):
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        dur = [s.t1 - s.t0 for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s.parent is not None:
                child[s.parent] += d
        self_s = defaultdict(float)
        for s, d, c in zip(spans, dur, child):
            self_s[s.layer] += d - c
        calls, secs, errors, info = defaultdict(int), defaultdict(float), defaultdict(int), defaultdict(list)
        for s, d in zip(spans, dur):
            calls[s.name] += 1
            errors[s.name] += s.err
            if not s.nested:
                secs[s.name] += d
                if s.info is not None:
                    info[s.name].append((s, s.info))

        def parent_name(s):
            return spans[s.parent].name if s.parent is not None else None

        def parent_layer(s):
            return spans[s.parent].layer if s.parent is not None else None

        def rate(num, den):
            return num / den if den > 0 else 0.0

        points = {k: sum(n for _, n in info[k]) for k in FIELD_METHODS.values()}
        quad_points = sum(n for k in FIELD_METHODS.values() for s, n in info[k]
                          if parent_layer(s) == "functionals")
        saddle_evals = sum(1 for s, n in info["fields.value"]
                           if n == 1 and parent_name(s) == "nodal.extract_nodal_set")
        bulk_keys = [key for k in BULK_QUADRATURES for _, key in info[k]]
        extracts = [v for _, v in info["nodal.extract_nodal_set"]]
        cells = sum((n - 1) ** 2 for n, _ in extracts)
        steps = sum(n for _, n in info["construct.hamiltonian_cauchy"])
        top = sum(d for s, d in zip(spans, dur) if s.parent is None)
        field_s = secs["fields.value"] + secs["fields.grad"]

        m = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        for fn in ("minimize_arc", "construct_uk"):
            put(f"construct.{fn}.calls", calls[f"construct.{fn}"], "count")
            put(f"construct.{fn}.s", secs[f"construct.{fn}"], "s")
            put(f"construct.{fn}.errors", errors[f"construct.{fn}"], "count")
        put("construct.psi.calls", calls["construct.psi"], "count")
        put("construct.arc_useful_ratio",
            rate(2 * calls["construct.construct_uk"], calls["construct.minimize_arc"]), "1")
        put("construct.energy_function.s", secs["construct.energy_function"], "s")
        put("construct.hamiltonian_cauchy.calls", calls["construct.hamiltonian_cauchy"], "count")
        put("construct.hamiltonian_cauchy.s", secs["construct.hamiltonian_cauchy"], "s")
        put("construct.hamiltonian_steps_per_s", rate(steps, secs["construct.hamiltonian_cauchy"]), "1/s")
        put("construct.self_s", self_s["construct"], "s")
        for fn in ("eval_H", "eval_Dt", "h1_norm", "w_prime_rhs"):
            put(f"functionals.{fn}.calls", calls[f"functionals.{fn}"], "count")
            put(f"functionals.{fn}.s", secs[f"functionals.{fn}"], "s")
        put("functionals.self_s", self_s["functionals"], "s")
        put("functionals.quad_points", quad_points, "count")
        put("functionals.bulk_per_radius", rate(len(bulk_keys), len(set(bulk_keys))), "1")
        put("orders.estimate_order.calls", calls["orders.estimate_order"], "count")
        put("orders.estimate_order.s", secs["orders.estimate_order"], "s")
        put("orders.self_s", self_s["orders"], "s")
        put("fields.value.points", points["fields.value"], "count")
        put("fields.value.s", secs["fields.value"], "s")
        put("fields.grad.points", points["fields.grad"], "count")
        put("fields.grad.s", secs["fields.grad"], "s")
        put("fields.points_per_s", rate(points["fields.value"] + points["fields.grad"], field_s), "1/s")
        put("fields.save.s", secs["fields.save"], "s")
        put("fields.load.s", secs["fields.load"], "s")
        put("fields.self_s", self_s["fields"], "s")
        put("nodal.extract_nodal_set.calls", calls["nodal.extract_nodal_set"], "count")
        put("nodal.extract_nodal_set.s", secs["nodal.extract_nodal_set"], "s")
        put("nodal.cells", cells, "count")
        put("nodal.cells_per_s", rate(cells, secs["nodal.extract_nodal_set"]), "1/s")
        put("nodal.segments", sum(n for _, n in extracts), "count")
        put("nodal.saddle_evals", saddle_evals, "count")
        put("nodal.detect_singular.s", secs["nodal.detect_singular"], "s")
        put("nodal.nodal_length.s", secs["nodal.nodal_length"], "s")
        put("nodal.self_s", self_s["nodal"], "s")
        put("cli.main.calls", calls["cli.main"], "count")
        put("cli.main.s", secs["cli.main"], "s")
        put("cli.self_s", self_s["cli"], "s")
        put("trace.spans", len(spans), "count")
        put("trace.wall_s", traced_wall, "s")
        put("trace.untraced_wall_s", untraced_wall, "s")
        put("trace.overhead_s", traced_wall - untraced_wall, "s")
        # op time outside every span; with the layers' self times it sums to trace.wall_s
        put("trace.unspanned_s", traced_wall - top, "s")
        return m
