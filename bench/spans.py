"""Span tracing of the package's public functions, from outside the package.

`Tracer.install()` replaces each target function with a recording wrapper
everywhere it is looked up: in its defining module, in every module that
imported it by name (for example `mullineux.involution.add_cogood`), and on
the class for methods.  Span targets record name, start, end and parent
span; count targets only bump a counter, because they run hundreds of
thousands of times inside spans that already carry their time.  Spans stay
in memory in flat arrays and are written out once, when the run ends.

The self time of a span is its duration minus the durations of its direct
child spans; one thread runs everything, so children never overlap.

LAYER_METRICS lists every per-layer metric, its unit, whether lower or
higher is better, and the end-to-end metric on the workload it should move.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from workloads import partition_count

SPAN, COUNT = "span", "count"

# (module, attribute, mode, modules whose lookups are wrapped or None for all)
TARGETS = (
    ("typea", "add_cogood", SPAN, None),
    ("typea", "signature_report", SPAN, None),
    ("partitions", "is_e_regular", COUNT, None),
    ("typea", "canonical_path", SPAN, None),
    ("typea", "replay_path", SPAN, None),
    ("typea", "enumerate_kleshchev", SPAN, None),
    # Only the lookup in typea: the regular-filter cross-check of the
    # type A enumeration.
    ("partitions", "e_regular_partitions", SPAN, ("typea",)),
    ("involution", "mullineux_map", SPAN, None),
    ("involution", "mullineux", SPAN, None),
    ("twisted", "node_scan", SPAN, None),
    ("twisted", "signature_report_twisted", COUNT, None),
    ("twisted", "enumerate_twisted", SPAN, None),
    ("twisted", "canonical_path_twisted", SPAN, None),
    ("twisted", "class_partitions", SPAN, None),
    ("folding", "check_fold_relations", SPAN, None),
    ("folding", "unfold", SPAN, None),
    ("bijections", "distinct_to_symmetric", SPAN, None),
    ("bijections", "symmetric_to_distinct", SPAN, None),
    ("partitions", "parse_partition", SPAN, None),
    ("partitions", "format_partition", SPAN, None),
    ("characters", "counts_table", SPAN, None),
    ("characters", "character_series", SPAN, None),
    ("characters", "verify_identity", SPAN, None),
    ("cache", "Cache.get", SPAN, None),
    ("cache", "Cache.put", SPAN, None),
    ("export", "graph_to_jsonl", SPAN, None),
    ("export", "graph_to_dot", SPAN, None),
    ("cli", "main", SPAN, None),
)

# Span names as reported: the defining module, except where the metric is
# named after the lookup site it measures.
SPAN_NAMES = {("partitions", "e_regular_partitions"): "typea.e_regular_partitions",
              ("cache", "Cache.get"): "cache.get",
              ("cache", "Cache.put"): "cache.put"}

# The benchmark's own root spans, one per operation it times.
COLD_ROOT, OP_ROOT = "bench.cold", "bench.op"

IDENTITY = "verify_cold_s on identity"
QUERIES = "query_* (op_*) on point-queries"
EXPORT = "export_cold_s (cold_pass_s) on crystal-fold"
FOLD = "fold_check_* (op_*) on crystal-fold"
WARM = "verify_warm_ms (op_p50_ms) on identity"

LAYER_METRICS = (
    ("typea.add_cogood.calls", "count", "lower", IDENTITY),
    ("typea.add_cogood.self_s", "s", "lower", IDENTITY),
    ("typea.signature_report.calls", "count", "lower", IDENTITY),
    ("typea.signature_report.self_s", "s", "lower", IDENTITY),
    ("typea.signature_report.cold_self_share", "ratio", "lower", IDENTITY),
    ("partitions.is_e_regular.calls", "count", "lower", IDENTITY),
    ("involution.mullineux_map.s", "s", "lower", IDENTITY),
    ("involution.mullineux_map.vertices", "count", "higher", IDENTITY),
    ("involution.mullineux_map.vertices_per_scan", "ratio", "higher", IDENTITY),
    ("typea.canonical_path.s", "s", "lower", QUERIES),
    ("typea.replay_path.s", "s", "lower", QUERIES + "; " + FOLD),
    ("involution.mullineux.s", "s", "lower", QUERIES),
    ("twisted.node_scan.calls", "count", "lower", EXPORT + "; " + FOLD),
    ("twisted.node_scan.self_s", "s", "lower", EXPORT + "; " + FOLD),
    ("twisted.signature_report_twisted.calls", "count", "lower", EXPORT + "; " + FOLD),
    ("twisted.enumerate_twisted.s", "s", "lower", EXPORT),
    ("twisted.canonical_path_twisted.calls", "count", "lower", FOLD),
    ("twisted.canonical_path_twisted.s", "s", "lower", FOLD),
    ("twisted.class_partitions.s", "s", "lower", EXPORT),
    ("twisted.class_partitions.kept_ratio", "ratio", "higher", EXPORT),
    ("typea.enumerate_kleshchev.s", "s", "lower", EXPORT),
    ("typea.e_regular_partitions.s", "s", "lower", EXPORT),
    ("folding.check_fold_relations.self_s", "s", "lower", FOLD),
    ("folding.unfold.s", "s", "lower", FOLD),
    ("folding.path_calls_per_check", "ratio", "lower", FOLD),
    ("bijections.distinct_to_symmetric.s", "s", "lower", QUERIES),
    ("bijections.symmetric_to_distinct.s", "s", "lower", QUERIES),
    ("partitions.parse_partition.s", "s", "lower", QUERIES),
    ("partitions.format_partition.s", "s", "lower", QUERIES + "; " + EXPORT),
    ("characters.counts_table.s", "s", "lower", IDENTITY),
    ("characters.character_series.s", "s", "lower", IDENTITY),
    ("characters.verify_identity.self_s", "s", "lower", IDENTITY),
    ("cache.get.s", "s", "lower", WARM),
    ("cache.put.s", "s", "lower", IDENTITY + "; " + EXPORT),
    ("cache.bytes_read", "B", "lower", WARM),
    ("cache.bytes_written", "B", "lower", IDENTITY + "; " + EXPORT),
    ("cache.hit_ratio", "ratio", "higher", WARM),
    ("export.graph_to_jsonl.s", "s", "lower", EXPORT),
    ("export.graph_to_dot.s", "s", "lower", EXPORT),
    ("export.bytes_out", "B", "lower", EXPORT),
    ("cli.main.self_s", "s", "lower", WARM),
    ("trace.spans", "count", "lower", "tracing itself"),
    ("trace.overhead_s", "s", "lower", "tracing itself: traced minus untraced wall time"),
)


def _after_hooks(counters):
    """Counters that need a call's arguments or result, by span name."""
    def kept(args, result):
        counters["twisted.class_partitions.kept"] += len(result)
        counters["twisted.class_partitions.scanned"] += partition_count(args[0])

    def got(args, result):
        counters["cache.gets"] += 1
        if result is not None:
            counters["cache.hits"] += 1
            counters["cache.bytes_read"] += len(result.encode())

    def put(args, result):
        counters["cache.bytes_written"] += len(args[2].encode())

    def exported(args, result):
        counters["export.bytes_out"] += len(result.encode())

    def mapped(args, result):
        counters["involution.mullineux_map.vertices"] += len(result)

    return {"twisted.class_partitions": kept, "cache.get": got, "cache.put": put,
            "export.graph_to_jsonl": exported, "export.graph_to_dot": exported,
            "involution.mullineux_map": mapped}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, fn, name, after):
        name_id, open_, close = self._name_id(name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _count_wrapper(self, fn, name):
        key = name + ".calls"
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, package: str = "mullineux") -> None:
        """Wrap every target at every lookup site in the loaded package."""
        for key in ("twisted.class_partitions.kept", "twisted.class_partitions.scanned",
                    "cache.gets", "cache.hits", "cache.bytes_read", "cache.bytes_written",
                    "export.bytes_out", "involution.mullineux_map.vertices"):
            self.counters[key] = 0
        hooks = _after_hooks(self.counters)
        for module, *_ in TARGETS:
            importlib.import_module(f"{package}.{module}")
        modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                   if (name == package or name.startswith(package + "."))
                   and mod is not None}
        for module, attr, mode, sites in TARGETS:
            name = SPAN_NAMES.get((module, attr), f"{module}.{attr}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(modules[module], cls_name)
                fn = owner.__dict__[meth]
                self._patch(owner, meth, self._span_wrapper(fn, name, hooks.get(name)))
                continue
            fn = getattr(modules[module], attr)
            if mode == COUNT:
                self.counters[name + ".calls"] = 0
                wrapper = self._count_wrapper(fn, name)
            else:
                wrapper = self._span_wrapper(fn, name, hooks.get(name))
            for site_name, site in modules.items():
                if (sites is None or site_name in sites) and vars(site).get(attr) is fn:
                    self._patch(site, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, directory: Path) -> None:
        """Spans as four int64 columns (name id, parent index or -1, start
        ns, end ns) in spans.bin, and names and counters in spans.json."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as handle:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
        (directory / "spans.json").write_text(json.dumps(
            {"names": self.names, "count": len(self.span_start),
             "columns": ["name", "parent", "start_ns", "end_ns"],
             "counters": self.counters}, indent=1, sort_keys=True))

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS except trace.overhead_s."""
        names, parents = self.span_name, self.span_parent
        count = len(names)
        duration = [end - start for start, end in zip(self.span_start, self.span_end)]
        children = [0] * count
        for idx in range(count):
            if parents[idx] >= 0:
                children[parents[idx]] += duration[idx]
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        for idx in range(count):
            nid = names[idx]
            total[nid] += duration[idx]
            self_ns[nid] += duration[idx] - children[idx]
            calls[nid] += 1

        def nid(name):
            return self._ids.get(name, -1)

        def s(name):
            return total[nid(name)] / 1e9 if nid(name) >= 0 else 0.0

        def self_s(name):
            return self_ns[nid(name)] / 1e9 if nid(name) >= 0 else 0.0

        def n_calls(name):
            return calls[nid(name)] if nid(name) >= 0 else 0

        def ratio(num, den):
            return num / den if den else 0.0

        # Nearest enclosing span of the given names, in one pass: a parent
        # always has a smaller index than its children.
        def nearest(wanted):
            wanted_ids = {nid(name) for name in wanted}
            out = array("q", [-1]) * count
            for idx in range(count):
                parent = parents[idx]
                if parent >= 0:
                    out[idx] = parent if names[parent] in wanted_ids else out[parent]
            return out

        scan_id, map_id = nid("typea.add_cogood"), nid("involution.mullineux_map")
        map_scans = sum(1 for idx in range(count)
                        if names[idx] == scan_id and parents[idx] >= 0
                        and names[parents[idx]] == map_id)
        path_id = nid("twisted.canonical_path_twisted")
        in_check = nearest(["folding.check_fold_relations"])
        paths_in_checks = sum(1 for idx in range(count)
                              if names[idx] == path_id and in_check[idx] >= 0)
        sig_id, cold_id = nid("typea.signature_report"), nid(COLD_ROOT)
        root = nearest([COLD_ROOT, OP_ROOT])
        sig_cold_self = sum(duration[idx] - children[idx] for idx in range(count)
                            if names[idx] == sig_id and root[idx] >= 0
                            and names[root[idx]] == cold_id)
        c = self.counters
        return {
            "typea.add_cogood.calls": n_calls("typea.add_cogood"),
            "typea.add_cogood.self_s": self_s("typea.add_cogood"),
            "typea.signature_report.calls": n_calls("typea.signature_report"),
            "typea.signature_report.self_s": self_s("typea.signature_report"),
            "typea.signature_report.cold_self_share": ratio(sig_cold_self / 1e9, s(COLD_ROOT)),
            "partitions.is_e_regular.calls": c.get("partitions.is_e_regular.calls", 0),
            "involution.mullineux_map.s": s("involution.mullineux_map"),
            "involution.mullineux_map.vertices": c["involution.mullineux_map.vertices"],
            "involution.mullineux_map.vertices_per_scan":
                ratio(c["involution.mullineux_map.vertices"], map_scans),
            "typea.canonical_path.s": s("typea.canonical_path"),
            "typea.replay_path.s": s("typea.replay_path"),
            "involution.mullineux.s": s("involution.mullineux"),
            "twisted.node_scan.calls": n_calls("twisted.node_scan"),
            "twisted.node_scan.self_s": self_s("twisted.node_scan"),
            "twisted.signature_report_twisted.calls":
                c.get("twisted.signature_report_twisted.calls", 0),
            "twisted.enumerate_twisted.s": s("twisted.enumerate_twisted"),
            "twisted.canonical_path_twisted.calls": n_calls("twisted.canonical_path_twisted"),
            "twisted.canonical_path_twisted.s": s("twisted.canonical_path_twisted"),
            "twisted.class_partitions.s": s("twisted.class_partitions"),
            "twisted.class_partitions.kept_ratio":
                ratio(c["twisted.class_partitions.kept"], c["twisted.class_partitions.scanned"]),
            "typea.enumerate_kleshchev.s": s("typea.enumerate_kleshchev"),
            "typea.e_regular_partitions.s": s("typea.e_regular_partitions"),
            "folding.check_fold_relations.self_s": self_s("folding.check_fold_relations"),
            "folding.unfold.s": s("folding.unfold"),
            "folding.path_calls_per_check":
                ratio(paths_in_checks, n_calls("folding.check_fold_relations")),
            "bijections.distinct_to_symmetric.s": s("bijections.distinct_to_symmetric"),
            "bijections.symmetric_to_distinct.s": s("bijections.symmetric_to_distinct"),
            "partitions.parse_partition.s": s("partitions.parse_partition"),
            "partitions.format_partition.s": s("partitions.format_partition"),
            "characters.counts_table.s": s("characters.counts_table"),
            "characters.character_series.s": s("characters.character_series"),
            "characters.verify_identity.self_s": self_s("characters.verify_identity"),
            "cache.get.s": s("cache.get"),
            "cache.put.s": s("cache.put"),
            "cache.bytes_read": c["cache.bytes_read"],
            "cache.bytes_written": c["cache.bytes_written"],
            "cache.hit_ratio": ratio(c["cache.hits"], c["cache.gets"]),
            "export.graph_to_jsonl.s": s("export.graph_to_jsonl"),
            "export.graph_to_dot.s": s("export.graph_to_dot"),
            "export.bytes_out": c["export.bytes_out"],
            "cli.main.self_s": self_s("cli.main"),
            "trace.spans": count,
        }


def read_spans(directory: Path) -> tuple[dict, list[array]]:
    """The header and the four columns that Tracer.write stored."""
    header = json.loads((directory / "spans.json").read_text())
    columns = []
    with open(directory / "spans.bin", "rb") as handle:
        for _ in header["columns"]:
            column = array("q")
            column.fromfile(handle, header["count"])
            columns.append(column)
    return header, columns
