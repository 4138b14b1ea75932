"""Per-layer tracing of qct from outside the library.

``Tracer.install`` replaces public qct functions and methods by wrappers
wherever they are bound, and ``Tracer.uninstall`` puts the originals back.
A span wrapper records one span per call: name, start, end, the op that was
running and the enclosing span.  A count wrapper only counts calls; it is
used for the hottest small functions whose metrics need no time.  Spans stay
in memory until ``write_spans``.  A layer is a qct module; a span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from time import perf_counter

LAYERS = ("qring", "laurent", "products", "closedform", "roots", "splitting", "gxseries", "cli")


def _fold_extras(args, result):
    return len(args[1]), len(result)


def _packed_extras(args, result):
    state, digit_bits = result
    return len(state), digit_bits


def _gcd_extras(args, result):
    # the gcd is normalised to a positive leading coefficient, so the units
    # of Z[q, 1/q] it can return are exactly the monomials q^k
    unit = (not result.is_zero() and result.min_exp() == result.max_exp()
            and result.coefficient(result.min_exp()) == 1)
    return (0 if unit else 1,)


# (layer, name, kind): kind "span" records spans, "count" only counts calls
TARGETS = (
    ("qring", "poly_gcd", "span"),
    ("qring", "interpolate", "span"),
    ("qring", "eval_poly", "span"),
    ("qring", "QLaurent.__mul__", "span"),
    ("qring", "QFrac.__add__", "count"),
    ("qring", "QFrac.__mul__", "count"),
    ("qring", "QFrac.__truediv__", "count"),
    ("laurent", "ct_fold", "span"),
    ("laurent", "fold_packed_raw", "span"),
    ("laurent", "MLaurent.__mul__", "span"),
    ("products", "bf_ct_grid", "span"),
    ("products", "bf_ct", "span"),
    ("products", "ct_qdyson", "span"),
    ("products", "kadell_ct", "span"),
    ("closedform", "bf_rhs", "span"),
    ("closedform", "qdyson_rhs", "span"),
    ("closedform", "kadell_rhs", "span"),
    ("closedform", "dn0_rhs", "span"),
    ("roots", "verify_roots", "span"),
    ("roots", "interpolate_dn", "span"),
    ("roots", "product_form_coeffs", "span"),
    ("roots", "path_weight", "span"),
    ("roots", "leave_one_out_bound_holds", "count"),
    ("roots", "lemma_key_classify", "span"),
    ("splitting", "verify_split", "span"),
    ("splitting", "residue_identity_holds", "span"),
    ("splitting", "pair_product", "span"),
    ("gxseries", "gx_ct", "span"),
    ("gxseries", "vanishing_property_checks", "span"),
    ("gxseries", "oracle_matches_direct", "span"),
    ("cli", "main", "span"),
)

# Counters derived from each call's arguments and result, as (name, unit).
# A "ratio" counter is averaged over calls, a "bits" counter keeps its
# maximum, a "count" counter is summed.
EXTRAS = {
    "qring.poly_gcd": (_gcd_extras, (("useful_ratio", "ratio"),)),
    "laurent.ct_fold": (_fold_extras, (("factors_in", "count"), ("terms_out", "count"))),
    "laurent.fold_packed_raw": (_packed_extras, (("states_out", "count"), ("digit_bits_max", "bits"))),
}

OVERHEAD_METRIC = "trace_overhead_s"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, name, kind in TARGETS:
        key = f"{layer}.{name}"
        out.append((f"{key}.calls", "count"))
        if kind == "span":
            out.append((f"{key}.self_s", "s"))
        if key in EXTRAS:
            out += [(f"{key}.{extra}", unit) for extra, unit in EXTRAS[key][1]]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out.append((OVERHEAD_METRIC, "s"))
    return out


def self_times(parents, durations) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    own = list(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            own[parent] -= dur
    return own


class Tracer:
    """Wraps the TARGETS while installed and keeps their spans and counters."""

    def __init__(self):
        self.names: list[str] = [f"{layer}.{name}" for layer, name, _ in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.extras = {key: [0] * len(units) for key, (_, units) in EXTRAS.items()}
        self.op_id = -1
        # one entry per span, in start order; span ids are indices
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, index: int, fn, kind: str):
        calls = self.calls
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        derive, units = EXTRAS.get(self.names[index], (None, ()))
        totals = self.extras.get(self.names[index])

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[index] += 1
            sid = len(span_name)
            span_name.append(index)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op_id)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            if derive is not None:
                for i, ((_, unit), value) in enumerate(zip(units, derive(args, result))):
                    totals[i] = max(totals[i], value) if unit == "bits" else totals[i] + value
            return result
        return spanned

    def install(self):
        """Wrap every target in every qct module namespace or class that binds it."""
        modules = [importlib.import_module(f"qct.{layer}") for layer in LAYERS]
        for index, (layer, name, kind) in enumerate(TARGETS):
            home = importlib.import_module(f"qct.{layer}")
            if "." in name:
                cls_name, attr = name.split(".")
                owners = [getattr(home, cls_name)]
                original = vars(owners[0])[attr]
            else:
                owners = modules
                original = vars(home)[name]
            wrapper = self._wrap(index, original, kind)
            for owner in owners:
                for bound, value in list(vars(owner).items()):
                    if value is original:
                        self._bindings.append((owner, bound, original))
                        setattr(owner, bound, wrapper)

    def uninstall(self) -> bool:
        """Restore every wrapped binding; True when all originals are back."""
        for owner, bound, original in reversed(self._bindings):
            setattr(owner, bound, original)
        restored = all(vars(owner)[bound] is original for owner, bound, original in self._bindings)
        self._bindings.clear()
        return restored

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (the overhead metric is added by the caller)."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        own = self_times(self.span_parent, durations)
        self_s = [0.0] * len(TARGETS)
        for index, value in zip(self.span_name, own):
            self_s[index] += value
        out = {}
        for index, (layer, name, kind) in enumerate(TARGETS):
            key = self.names[index]
            calls = self.calls[index]
            out[f"{key}.calls"] = calls / passes
            if kind == "span":
                out[f"{key}.self_s"] = self_s[index] / passes
            if key in EXTRAS:
                for (extra, unit), total in zip(EXTRAS[key][1], self.extras[key]):
                    per = {"ratio": calls or 1, "bits": 1}.get(unit, passes)
                    out[f"{key}.{extra}"] = total / per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(self_s[i] for i, target in enumerate(TARGETS)
                                         if target[0] == layer) / passes
        return out

    def write_spans(self, path: str):
        """All spans as gzip CSV: span id, parent id, op id, name, start, duration (s)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,op,name,start_s,dur_s\n")
            for sid, (index, parent, op, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)):
                fh.write(f"{sid},{parent},{op},{self.names[index]},{start - t0:.9f},{end - start:.9f}\n")
