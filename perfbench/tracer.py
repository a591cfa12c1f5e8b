"""Span tracer for the traced benchmark run.

The tracer wraps the layer-boundary functions of the ``cubeloops`` package
from outside: every module that holds a reference to a wrapped function
gets the wrapper in its place, and ``uninstall`` puts the originals back.
Leaf helpers are deliberately not wrapped; a wrapper costs about a
microsecond per call, and wrapping every public function made traced runs
30-70% slower than untraced ones.

Spans live in flat arrays (name, start, end, parent, op id) plus a sparse
map of per-span values, and are written out only when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (module, function, value recorded on the span or None)
TARGETS = (
    ("cli", "main", None),
    ("enumeration", "enumerate_paths", None),
    ("paths", "canonicalize", lambda args, result: hash(result.labels)),
    ("paths", "validate", None),
    ("paths", "path_symmetries", lambda args, result: (1 << args[0].dim) - 1),
    ("verdict", "decide_embedded", lambda args, result: int(result.embedded)),
    ("verdict", "build_report", None),
    ("lattice", "pair_translation_lattice", None),
    ("lattice", "even_translation_lattice", None),
    ("lattice", "direction_product_translation", None),
    ("lattice", "parallel_pair_translation", None),
    ("reflection", "reflection_generators", None),
    ("reflection", "reflection_closure", lambda args, result: result.order),
    ("reflection", "filled_cubes", None),
    ("groups", "close_under_composition", None),
    ("geometry", "expand_patches", lambda args, result: result.count),
    ("geometry", "vertex_incidence", None),
    ("geometry", "export_mesh", lambda args, result: len(result)),
)

# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "lower"),
    "enumeration.enumerate_paths.ms": ("ms", "lower"),
    "enumeration.enumerate_paths.self_ms": ("ms", "lower"),
    "enumeration.raw_words": ("count", "lower"),
    "enumeration.classes": ("count", "higher"),
    "enumeration.distinct_ratio": ("ratio", "higher"),
    "enumeration.classify_calls": ("count", "lower"),
    "enumeration.embedded_yield": ("ratio", "higher"),
    "verdict.decide_embedded.calls": ("count", "lower"),
    "verdict.decide_embedded.ms": ("ms", "lower"),
    "verdict.build_report.calls": ("count", "lower"),
    "verdict.build_report.ms": ("ms", "lower"),
    "verdict.build_report.self_ms": ("ms", "lower"),
    "paths.canonicalize.calls": ("count", "lower"),
    "paths.canonicalize.self_ms": ("ms", "lower"),
    "paths.validate.calls": ("count", "lower"),
    "paths.validate.self_ms": ("ms", "lower"),
    "paths.path_symmetries.calls": ("count", "lower"),
    "paths.path_symmetries.self_ms": ("ms", "lower"),
    "paths.path_symmetries.masks_tried": ("count", "lower"),
    "lattice.pair_translation_lattice.calls": ("count", "lower"),
    "lattice.pair_translation_lattice.ms": ("ms", "lower"),
    "lattice.even_translation_lattice.calls": ("count", "lower"),
    "lattice.even_translation_lattice.ms": ("ms", "lower"),
    "lattice.direction_product_translation.calls": ("count", "lower"),
    "lattice.direction_product_translation.ms": ("ms", "lower"),
    "lattice.parallel_pair_translation.self_ms": ("ms", "lower"),
    "lattice.pair_lattices_per_report": ("ratio", "lower"),
    "reflection.reflection_generators.calls": ("count", "lower"),
    "reflection.reflection_generators.self_ms": ("ms", "lower"),
    "reflection.reflection_closure.calls": ("count", "lower"),
    "reflection.reflection_closure.ms": ("ms", "lower"),
    "reflection.closure_elements": ("count", "lower"),
    "reflection.filled_cubes.self_ms": ("ms", "lower"),
    "groups.close_under_composition.self_ms": ("ms", "lower"),
    "geometry.expand_patches.calls": ("count", "lower"),
    "geometry.expand_patches.self_ms": ("ms", "lower"),
    "geometry.patches": ("count", "lower"),
    "geometry.vertex_incidence.self_ms": ("ms", "lower"),
    "geometry.export_mesh.ms": ("ms", "lower"),
    "geometry.export_bytes": ("bytes", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly on one seed (not times)."""
    return not metric.endswith("ms") and metric != "trace_overhead_s"


class Tracer:
    """In-memory span recorder around the functions named in ``TARGETS``."""

    def __init__(self) -> None:
        self.names = [f"{module}.{function}" for module, function, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, int] = {}
        self.current = -1
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [
            module
            for key, module in sys.modules.items()
            if key == "cubeloops" or key.startswith("cubeloops.")
        ]
        for index, (module, function, value_of) in enumerate(TARGETS):
            original = getattr(importlib.import_module(f"cubeloops.{module}"), function)
            wrapper = self._wrap(index, original, value_of)
            for holder in package:
                for attr, bound in list(vars(holder).items()):
                    if bound is original:
                        setattr(holder, attr, wrapper)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, index, original, value_of):
        tracer = self
        name, parents, ops, starts, ends = (
            self.name, self.parent, self.op, self.start, self.end
        )

        def traced(*args, **kwargs):
            span = len(starts)
            name.append(index)
            parents.append(tracer.current)
            ops.append(tracer.op_id)
            ends.append(0.0)
            tracer.current = span
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                tracer.current = parents[span]
            if value_of is not None:
                tracer.values[span] = value_of(args, result)
            return result

        return traced

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans with index in [lo, hi): one pass."""
        names = self.names
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        child = {}
        for i in range(lo, hi):
            duration = self.end[i] - self.start[i]
            calls[names[self.name[i]]] += 1
            total[names[self.name[i]]] += duration
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + duration
        own = dict.fromkeys(names, 0.0)
        for i in range(lo, hi):
            own[names[self.name[i]]] += self.end[i] - self.start[i] - child.get(i, 0.0)

        def parent_is(i: int, target: str) -> bool:
            p = self.parent[i]
            return p >= lo and names[self.name[p]] == target

        value_sum = dict.fromkeys(names, 0)
        raw_words = classify = survivors = report_pairs = 0
        classes: set[tuple[int, int]] = set()  # (enumerate span, class hash)
        under_report: dict[int, bool] = {}
        for i in range(lo, hi):
            fn = names[self.name[i]]
            value = self.values.get(i)
            if value is not None:
                value_sum[fn] += value
            p = self.parent[i]
            under_report[i] = p >= lo and (
                names[self.name[p]] == "verdict.build_report" or under_report[p]
            )
            if fn == "paths.canonicalize" and parent_is(i, "enumeration.enumerate_paths"):
                raw_words += 1
                classes.add((self.parent[i], value))
            elif fn == "verdict.decide_embedded" and parent_is(
                i, "enumeration.enumerate_paths"
            ):
                classify += 1
                survivors += value
            elif fn == "lattice.pair_translation_lattice" and under_report[i]:
                report_pairs += 1

        def ms(seconds: float) -> float:
            return seconds * 1000.0

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            fn, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[fn]
            elif field == "ms":
                out[metric] = ms(total[fn])
            elif field == "self_ms":
                out[metric] = ms(own[fn])
        out["enumeration.raw_words"] = raw_words
        out["enumeration.classes"] = len(classes)
        out["enumeration.distinct_ratio"] = len(classes) / raw_words if raw_words else 0
        out["enumeration.classify_calls"] = classify
        out["enumeration.embedded_yield"] = survivors / classify if classify else 0
        out["paths.path_symmetries.masks_tried"] = value_sum["paths.path_symmetries"]
        reports = calls["verdict.build_report"]
        out["lattice.pair_lattices_per_report"] = (
            report_pairs / reports if reports else 0
        )
        out["reflection.closure_elements"] = value_sum["reflection.reflection_closure"]
        out["geometry.patches"] = value_sum["geometry.expand_patches"]
        out["geometry.export_bytes"] = value_sum["geometry.export_mesh"]
        return out

    def write(self, path: str, origin: float) -> None:
        """All spans as tab-separated text: name, op, parent, start, end (us)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\top\tparent\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t"
                    f"{(self.end[i] - origin) * 1e6:.1f}\n"
                )
