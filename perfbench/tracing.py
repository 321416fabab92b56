"""Spans around calls into the library's public functions.

The library is not edited: `Tracer.install` replaces each traced function at
every module attribute that holds it (the defining module and every module
that imported it by name), so calls made from inside the library are seen
too.  Spans are recorded only while an op is open; everything is kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) -> (end-to-end metric it should move, on which workload)
SPANNED = {
    ("oracle", "power_conjugacy_search"): "ops_per_s on powmap-grid; nothing elsewhere",
    ("oracle", "unipotent_rep"): "a small share of powmap-grid",
    ("oracle", "sl2_classes"): "ops_per_s and op_tail_ms on brauer-census",
    ("oracle", "brauer_fixed_classes_sl2"): "ops_per_s and op_tail_ms on brauer-census",
    ("char_fields", "predicted_fixed_count_rank1"): "ops_per_s on brauer-census",
    ("char_fields", "character_field"): "ops_per_s on field-queries",
    ("char_fields", "is_real_series"): "ops_per_s on field-queries",
    ("semisimple", "galois_stabilizer"): "ops_per_s and op_tail_ms on field-queries; a small share of brauer-census",
    ("semisimple", "sigma_image"): "recorded (brauer-census)",
    ("semisimple", "class_from_dict"): "recorded (field-queries)",
    ("semisimple", "enumerate_classes"): "recorded (brauer-census)",
    ("cli", "main"): "op_p50_ms on field-queries",
    ("hc_action", "series_twist_sign"): "small everywhere; recorded so a regression shows",
    ("power_maps", "unipotent_rational"): "small everywhere; recorded so a regression shows",
    ("galois_arith", "gauss_sqrt_sign"): "small everywhere; recorded so a regression shows",
    ("symbols", "special_symbol"): "small everywhere; recorded so a regression shows",
    ("symbols", "wavefront_partition"): "small everywhere; recorded so a regression shows",
}
# Hot functions get a call counter and no span.
COUNTED = {
    ("oracle", "mat_mul"): "ops_per_s and op_tail_ms on brauer-census",
}
# name -> (unit, expectation)
EXTRA = {
    "oracle.power_conjugacy_search.no_witness_s": ("s", "ops_per_s on powmap-grid"),
    "trace_overhead_ratio": ("ratio", "none: traced wall time over untraced wall time"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = []
    for mod, fn in SPANNED:
        names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    names += [(f"{mod}.{fn}.calls", "count") for mod, fn in COUNTED]
    return names + [(name, unit) for name, (unit, _) in EXTRA.items()]


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, op id];
    parent is -1 for an op's root span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack = [len(self.spans)]
        self.spans.append(["op", perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = perf_counter()
        self.op = None
        self._stack = []

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans = self.spans

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack
            i = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1], self.op])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "charfield") -> None:
        """Wrap every traced function at every attribute of every loaded
        module of the package that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrappers = {}
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod, fn in table:
                original = getattr(sys.modules[f"{package}.{mod}"], fn)
                wrappers[id(original)] = make(f"{mod}.{fn}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed = []

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent, overlaps
    counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """name -> {"calls": n, "self_s": total self time}."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return totals


def self_time_by_op(spans: list[list], name: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[0] == name:
            out[span[4]] = out.get(span[4], 0.0) + own
    return out
