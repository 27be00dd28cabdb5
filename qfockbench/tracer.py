"""Span tracer that wraps the public entry points of each qfock layer.

The tracer patches functions from outside the package: a module-level
function is replaced in every qfock module that holds a reference to it
(``cli`` imports ``verify_yang`` by name, for instance), and a method is
replaced on its class.  ``uninstall`` puts every original back.

Each wrapped call is a span with a name, start, end and parent.  A layer's
self time is the time inside its wrapped calls minus the time covered by
their child spans.  Calls into ``scalars`` number in the millions per
round, so their spans are folded into their parent (counted and timed, not
stored one by one); every other span is kept in memory and written out by
``dump`` when the round ends.  Tracing costs about a microsecond per
wrapped call; a few tenths of that fall outside the clock readings and so
count to the caller's layer, which inflates the self time of a layer that
makes millions of scalar calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

LAYERS = ("scalars", "tensorops", "braidings", "quadalgebras", "fockdouble",
          "currents", "cli")

# Wrapped entry points per layer: "Class.method" or "function".  Trivial
# accessors and predicates (enc_index, is_zero, ...) stay unwrapped; their
# time counts to the layer that calls them.
ENTRY_POINTS = {
    "scalars": ["Scalar.make", "Scalar.__add__", "Scalar.__mul__"],
    "tensorops": ["LinOperator.__matmul__", "LinOperator.__add__",
                  "LinOperator.__sub__", "LinOperator.scale",
                  "LinOperator.inverse", "place", "partial_trace",
                  "row_reduce", "kernel_image", "mat_mul", "mat_inv"],
    "braidings": ["Braiding.braid_ok", "Braiding.kind_polynomial_ok",
                  "make_standard_hecke", "load_braiding_table", "load_builtin",
                  "skew_inverse", "dual_pairings", "extend_to_duals",
                  "projectors", "projector_decomposition_ok", "baxterize",
                  "spectral_braid_certificate", "unitarity_certificate",
                  "braiding_to_table"],
    "quadalgebras": ["GradedQuotient.component", "GradedQuotient.normal_form",
                     "GradedQuotient.normal_form_word",
                     "GradedQuotient.poincare", "make_algebra",
                     "mu_eigenspace_degree2_report"],
    "fockdouble": ["FockDouble.normal_order", "FockDouble.multiply",
                   "FockDouble.act", "make_double", "verify_compatibility",
                   "verify_l_relations", "fock_representation",
                   "representation_l_relations_ok", "left_dual_variant_report",
                   "braided_lie", "verify_lie"],
    "currents": ["make_current_double", "current_relation_check",
                 "verify_yang", "zf_act", "mode_permute"],
    "cli": ["main", "cmd_verify", "cmd_repr", "Report.add"],
}

# Per-layer metrics that are plain call counts of one or more entry points.
CALL_METRICS = {
    "scalars.make_calls": ["scalars:Scalar.make"],
    "scalars.add_calls": ["scalars:Scalar.__add__"],
    "scalars.mul_calls": ["scalars:Scalar.__mul__"],
    "tensorops.matmul_calls": ["tensorops:LinOperator.__matmul__",
                               "tensorops:mat_mul"],
    "tensorops.place_calls": ["tensorops:place"],
    "tensorops.row_reduce_calls": ["tensorops:row_reduce"],
    "braidings.skew_inverse_calls": ["braidings:skew_inverse"],
    "braidings.certificate_calls": ["braidings:spectral_braid_certificate",
                                    "braidings:unitarity_certificate"],
    "quadalgebras.component_calls": ["quadalgebras:GradedQuotient.component"],
    "fockdouble.normal_order_calls": ["fockdouble:FockDouble.normal_order"],
    "fockdouble.multiply_calls": ["fockdouble:FockDouble.multiply"],
    "currents.verify_yang_calls": ["currents:verify_yang"],
    "cli.checks": ["cli:Report.add"],
}

# Per-layer metrics accumulated from call arguments or results.
WORK_METRICS = ("scalars.make_polyden_calls", "tensorops.matmul_cells",
                "tensorops.row_reduce_cells", "currents.matrix_elements")


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "layer:entry" per entry id
        self.calls: list[int] = []          # call count per entry id
        self.self_s = [0.0] * len(LAYERS)   # self time per layer index
        self.work = dict.fromkeys(WORK_METRICS, 0)
        # stored spans, one slot per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # one frame per open call: [time covered by children, stored span id]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"qfock.{layer}")
                   for layer in LAYERS}
        holders = [importlib.import_module("qfock"), *modules.values()]
        for li, layer in enumerate(LAYERS):
            mod = modules[layer]
            for entry in ENTRY_POINTS[layer]:
                eid = len(self.names)
                self.names.append(f"{layer}:{entry}")
                self.calls.append(0)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(raw.__func__, eid, li))
                    else:
                        wrapped = self._wrap(raw, eid, li)
                    self._patch(cls, attr, wrapped)
                else:
                    original = getattr(mod, entry)
                    wrapped = self._wrap(original, eid, li)
                    for holder in holders:
                        if holder.__dict__.get(entry) is original:
                            self._patch(holder, entry, wrapped)

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, eid: int, layer: int):
        # The clock is read first and last, so that the wrapper's own cost
        # lands in the wrapped call rather than in its caller's self time.
        name = self.names[eid]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        work = self.work
        perf = time.perf_counter

        if LAYERS[layer] == "scalars":
            @functools.wraps(fn)
            def folded(*args):
                t0 = perf()
                if before is not None:
                    before(work, args)
                frame = [0.0, -1]
                stack.append(frame)
                try:
                    return fn(*args)
                finally:
                    stack.pop()
                    calls[eid] += 1
                    dt = perf() - t0
                    self_s[layer] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
            return folded

        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            if before is not None:
                args = before(work, args) or args
            sid = len(span_start)
            span_name.append(eid)
            span_parent.append(stack[-1][1] if stack else -1)
            span_start.append(t0)
            span_end.append(t0)
            frame = [0.0, sid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                calls[eid] += 1
                t1 = perf()
                span_end[sid] = t1
                dt = t1 - t0
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(work, out)
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        index = {name: i for i, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, entries in CALL_METRICS.items():
            out[metric] = sum(self.calls[index[e]] for e in entries)
        out.update(self.work)
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[li]
        return out

    def dump(self, path, commands: list[list[str]]):
        """Write the stored spans; root spans are the commands, in order."""
        spans = [[self.span_name[i], self.span_parent[i],
                  self.span_start[i], self.span_end[i]]
                 for i in range(len(self.span_start))]
        doc = {"commands": commands, "names": self.names,
               "calls": dict(zip(self.names, self.calls)),
               "span_fields": ["name", "parent", "start_s", "end_s"],
               "spans": spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- argument and result hooks for the work metrics ----------------------

# Each hook sees the positional arguments, as every caller in qfock passes
# them; a hook that consumes an iterator returns the arguments to pass on.

def _before_make(work, args):
    den = args[1]
    if len(den) > 1 and sum(1 for c in den.values() if c) > 1:
        work["scalars.make_polyden_calls"] += 1


def _before_matmul(work, args):
    work["tensorops.matmul_cells"] += args[0].size ** 3


def _before_mat_mul(work, args):
    a, b = args
    work["tensorops.matmul_cells"] += len(a) * len(b) * len(b[0])


def _before_row_reduce(work, args):
    rows = list(args[0])
    work["tensorops.row_reduce_cells"] += len(rows) * args[1]
    return (rows, *args[1:])


def _after_verify_yang(work, out):
    work["currents.matrix_elements"] += out["matrix_elements"]


_BEFORE = {
    "scalars:Scalar.make": _before_make,
    "tensorops:LinOperator.__matmul__": _before_matmul,
    "tensorops:mat_mul": _before_mat_mul,
    "tensorops:row_reduce": _before_row_reduce,
}
_AFTER = {"currents:verify_yang": _after_verify_yang}
