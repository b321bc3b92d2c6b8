"""Spans around lpoly's layer entry points, installed from outside the package.

Each wrapped call records one span [name, start, end, parent, note] in
memory; the parent is the index of the enclosing span (-1 at the top), and
note is a value computed from the call's arguments (sum keys, element
counts, computed table bytes).  A wrapped name is rebound in every lpoly
module that imported it, and methods are patched on their class, so calls
between modules go through the wrappers too.  Nothing under src/ changes.

A layer's self time is its spans' duration minus the time their child spans
cover; one job runs on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block; yields its record."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        """fn with every call recorded as a span; note(args, kwargs, result)
        fills the span's note."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced


def _sum_note(kind, fn):
    """Note of one character-sum call: (its cache key, q^r elements)."""
    sig = inspect.signature(fn)

    def note(args, kwargs, out):
        a = sig.bind(*args, **kwargs).arguments
        P, r = a["P"], a["r"]
        if kind == "twisted":
            key = (kind, P.key(), a["twist"].d, a["twist"].kappa, r)
        elif kind == "power":
            key = (kind, P.key(), a["d"], r)
        else:
            key = (kind, P.key(), r)
        return key, P.base.order ** r

    return note


def _table_bytes(args, kwargs, out):
    """Computed size of a trace table: one entry per unit of F_{p^n}."""
    table, p, n = args[0], args[1], args[2]
    return (p ** n - 1) * table.traces.itemsize


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer table reads."""
    from lpoly import (char_sums, cli, cyclotomic, finite_field, local_valuation, polygon,
                       stratification)

    modules = (finite_field, cyclotomic, polygon, char_sums, local_valuation,
               stratification, cli)

    def rebind(owner, attr, name, note_for=None):
        orig = getattr(owner, attr)
        new = tracer.wrap(name, orig, note_for(orig) if note_for else None)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    def patch(cls, attr, name, note=None, static=False):
        orig = cls.__dict__[attr]
        if static:
            orig = orig.__func__
        new = tracer.wrap(name, orig, note)
        setattr(cls, attr, staticmethod(new) if static else new)

    rebind(finite_field, "dlog", "finite_field.dlog")
    rebind(finite_field, "primitive_root", "finite_field.primitive_root")
    rebind(finite_field, "embed", "finite_field.embed")
    patch(finite_field.Embedding, "__call__", "finite_field.embed")
    patch(char_sums._TraceTable, "__init__", "char_sums.trace_table", _table_bytes)
    for kind in ("twisted", "additive", "power"):
        rebind(char_sums, f"{kind}_sum", "char_sums.sum",
               lambda fn, kind=kind: _sum_note(kind, fn))
    rebind(char_sums, "l_polynomial", "char_sums.recurrence")
    rebind(char_sums, "lpoly_mul", "char_sums.lpoly_mul")
    patch(cyclotomic.CycloElem, "__mul__", "cyclotomic.mul")
    rebind(cyclotomic, "exact_div_int", "cyclotomic.exact_div")
    rebind(local_valuation, "valuation", "local_valuation.valuation")
    rebind(local_valuation, "make_context", "local_valuation.context")
    rebind(local_valuation, "aligned_context", "local_valuation.context")
    for fn in ("hasse_twisted_eval", "hasse_additive_eval", "hasse_full_eval"):
        rebind(stratification, fn, "stratification.hasse")
    for fn in ("hs_twisted", "gnp_twisted", "hs_power", "gnp_power"):
        rebind(stratification, fn, "stratification.predicted_polygon")
    patch(polygon.NewtonPolygon, "from_points", "polygon.hull", static=True)
    rebind(cli, "_cache_write", "cli.sweep_cache_write")
    # every driver starts a row or instance by building its polynomial
    # through cli.poly_from_ints; only cli's binding marks row starts
    cli.poly_from_ints = tracer.wrap("cli.row_start", cli.poly_from_ints)


# unit of every per-layer figure; run.py adds the cli.* byte counts, the
# row percentiles and the tracing overhead
LAYER_UNITS = {
    "finite_field.dlog_calls": "count",
    "finite_field.dlog_s": "s",
    "finite_field.primitive_root_s": "s",
    "finite_field.embed_s": "s",
    "char_sums.trace_table_builds": "count",
    "char_sums.trace_table_s": "s",
    "char_sums.trace_table_bytes": "bytes_computed",
    "char_sums.elements": "count",
    "char_sums.kernel_s": "s",
    "char_sums.kernel_ns_per_element": "ns/element",
    "char_sums.sum_calls": "count",
    "char_sums.sum_distinct": "count",
    "char_sums.sum_cache_hit_ratio": "hits/calls",
    "char_sums.recurrence_s": "s",
    "char_sums.lpoly_mul_s": "s",
    "cyclotomic.mul_calls": "count",
    "cyclotomic.mul_s": "s",
    "cyclotomic.exact_div_calls": "count",
    "local_valuation.valuation_calls": "count",
    "local_valuation.valuation_s": "s",
    "local_valuation.escalations": "count",
    "local_valuation.context_s": "s",
    "stratification.hasse_calls": "count",
    "stratification.hasse_s": "s",
    "stratification.predicted_polygon_s": "s",
    "polygon.hull_s": "s",
    "cli.sweep_cache_write_s": "s",
    "cli.sweep_cache_bytes": "bytes",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
}


def _rows_ms(spans):
    """Row times: from one row start to the next; the last row ends with the
    last lpoly span that began after its start."""
    marks = [i for i, s in enumerate(spans) if s[0] == "cli.row_start"]
    out = []
    for k, i in enumerate(marks):
        if k + 1 < len(marks):
            end = spans[marks[k + 1]][1]
        else:
            end = max(s[2] for s in spans[i:]
                      if s[0] not in ("cli.sweep_cache_write", "cli.emit"))
        out.append((end - spans[i][1]) * 1e3)
    return out


def summarize(spans):
    """Per-layer figures of one traced job, and its row times in ms.

    The benchmark's own spans are cli.driver around the driver call and
    cli.emit around writing the canonical JSON."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s, calls = {}, {}
    for i, s in enumerate(spans):
        self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - child[i]
        calls[s[0]] = calls.get(s[0], 0) + 1

    def t(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    sums = [s[4] for s in spans if s[0] == "char_sums.sum" and s[4] is not None]
    seen, elements = set(), 0
    for key, count in sums:
        if key not in seen:
            seen.add(key)
            elements += count
    kernel_s = t("char_sums.sum")
    escalations = sum(1 for s in spans if s[0] == "local_valuation.context"
                      and s[3] >= 0 and spans[s[3]][0] == "local_valuation.valuation")
    return {
        "finite_field.dlog_calls": n("finite_field.dlog"),
        "finite_field.dlog_s": t("finite_field.dlog"),
        "finite_field.primitive_root_s": t("finite_field.primitive_root"),
        "finite_field.embed_s": t("finite_field.embed"),
        "char_sums.trace_table_builds": n("char_sums.trace_table"),
        "char_sums.trace_table_s": t("char_sums.trace_table"),
        "char_sums.trace_table_bytes": sum(s[4] for s in spans if s[0] == "char_sums.trace_table"),
        "char_sums.elements": elements,
        "char_sums.kernel_s": kernel_s,
        "char_sums.kernel_ns_per_element": kernel_s / elements * 1e9 if elements else 0.0,
        "char_sums.sum_calls": len(sums),
        "char_sums.sum_distinct": len(seen),
        "char_sums.sum_cache_hit_ratio": (len(sums) - len(seen)) / len(sums) if sums else 0.0,
        "char_sums.recurrence_s": t("char_sums.recurrence"),
        "char_sums.lpoly_mul_s": t("char_sums.lpoly_mul"),
        "cyclotomic.mul_calls": n("cyclotomic.mul"),
        "cyclotomic.mul_s": t("cyclotomic.mul"),
        "cyclotomic.exact_div_calls": n("cyclotomic.exact_div"),
        "local_valuation.valuation_calls": n("local_valuation.valuation"),
        "local_valuation.valuation_s": t("local_valuation.valuation"),
        "local_valuation.escalations": escalations,
        "local_valuation.context_s": t("local_valuation.context"),
        "stratification.hasse_calls": n("stratification.hasse"),
        "stratification.hasse_s": t("stratification.hasse"),
        "stratification.predicted_polygon_s": t("stratification.predicted_polygon"),
        "polygon.hull_s": t("polygon.hull"),
        "cli.sweep_cache_write_s": t("cli.sweep_cache_write"),
        "cli.emit_s": t("cli.emit"),
        "cli.self_s": t("cli.driver"),
    }, _rows_ms(spans)
