"""Per-layer spans around the calls regcount's modules make into each other.

Run as a script, this executes one regcount command in-process and writes its
spans as JSON:

    python3 perfbench/tracer.py MODE SPANS_OUT -- REGCOUNT_ARGS...

MODE "full" wraps every hook below; MODE "off" wraps only the fan-out
(one span per command), which is the untraced baseline the tracing overhead
is measured against.  The modules import each other with `from .x import y`,
so a hook replaces every name in every regcount module that is bound to the
hooked function, and rebuilds any `lru_cache` around it.  A hook whose
function no longer exists is reported as missing and its metrics as absent.

Imported, it turns the span files of one workload into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

_CLOSED_FORMS = (
    "matching_count_upper",
    "independent_count_upper",
    "optimal_lambda",
    "union_independent_lower",
    "union_matching_lower_explicit",
    "union_small_t_exact",
    "block_miss_stats",
    "independent_upper_pm_exact",
)
_VERDICT_BUILDERS = (
    "suite_graph_verdicts",
    "verify_real_rooted",
    "hom_graph_verdicts",
    "verify_union_lower_bounds",
    "umc_graph_verdicts",
    "kahn_graph_verdicts",
)

# (defining module, function, span name, the only modules whose names are
# patched, or None for every regcount module).  log2 is patched in verify
# alone so that it counts the margin logs, not the logs inside bounds.
HOOKS = (
    ("regcount.generate", "generate", "generate", None),
    ("regcount.generate", "canonical_form", "canonical_form", None),
    ("regcount._canon", "min_code", "min_code", None),
    ("regcount.counting", "matching_polynomial", "matching_polynomial", None),
    ("regcount.counting", "independence_polynomial", "independence_polynomial", None),
    ("regcount.counting", "count_homomorphisms", "count_homomorphisms", None),
    ("regcount.bounds", "log2", "log2", ("regcount.verify",)),
    *(("regcount.bounds", name, "closed_form", None) for name in _CLOSED_FORMS),
    *(("regcount.verify", name, "checks", None) for name in _VERDICT_BUILDERS),
    ("regcount.verify", "sort_verdicts", "sort", None),
    ("regcount.cli", "_emit", "serialize", None),
    ("regcount.cli", "_pmap", "pmap", None),
)
ALL_SPANS = {span for _, _, span, _ in HOOKS}
OFF_SPANS = ("pmap",)
# Spans whose first argument is the graph, so calls per distinct graph show.
GRAPH_SPANS = ("matching_polynomial", "independence_polynomial")
# The nearest of these ancestors decides which caller a min_code span is
# charged to.
MIN_CODE_CALLERS = {
    "generate": "by_generate",
    "canonical_form": "by_labels",
    "matching_polynomial": "by_counting",
    "independence_polynomial": "by_counting",
    "count_homomorphisms": "by_counting",
}

# Span names each per-layer metric reads; it is absent when one of them has
# no hook left in the program.
METRIC_SPANS = {
    "generate.s": ("generate",),
    "generate.classes": ("generate",),
    "canon.min_code.calls": ("min_code",),
    "canon.min_code.s": ("min_code",),
    "canon.min_code.s.by_counting": ("min_code", "matching_polynomial"),
    "canon.min_code.s.by_generate": ("min_code", "generate"),
    "canon.min_code.s.by_labels": ("min_code", "canonical_form"),
    "counting.matching_polynomial.calls": ("matching_polynomial",),
    "counting.matching_polynomial.s": ("matching_polynomial",),
    "counting.matching_polynomial.per_graph": ("matching_polynomial",),
    "counting.independence_polynomial.calls": ("independence_polynomial",),
    "counting.independence_polynomial.s": ("independence_polynomial",),
    "counting.independence_polynomial.per_graph": ("independence_polynomial",),
    "counting.count_homomorphisms.calls": ("count_homomorphisms",),
    "counting.count_homomorphisms.s": ("count_homomorphisms",),
    "bounds.log2.calls": ("log2",),
    "bounds.log2.s": ("log2",),
    "bounds.closed_form.s": ("closed_form",),
    "verify.checks.s": ("checks",),
    "verify.verdicts": (),
    "verify.sort.calls": ("sort",),
    "verify.sort.s": ("sort",),
    "cli.serialize.s": ("serialize",),
    "cli.report_bytes": (),
    "cli.serial_prefix_s": ("pmap",),
    "cli.pmap.s.w1": ("pmap",),
    "cli.pmap.s.w2": ("pmap",),
    "cli.pmap.efficiency": ("pmap",),
    "trace.overhead_s": (),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, graph] rows."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack = [-1]
        self._graph_ids: dict = {}
        self.items: dict[str, int] = {}

    def open(self, name: str, graph=None) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        try:
            gid = -1 if graph is None else self._graph_ids.setdefault(graph, len(self._graph_ids))
        except TypeError:  # an argument that cannot be told apart from others
            gid = -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, self._stack[-1], gid])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            # One span per next(): the search between two emitted graphs.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.items[name] = self.items.get(name, 0) + 1
                    yield item

            return traced_gen
        takes_graph = name in GRAPH_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, args[0] if takes_graph and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self, span_names) -> tuple[list[str], list[str]]:
        """Wrap the hooks of the given spans; return (installed span names,
        missing hook targets)."""
        modules = [m for n, m in list(sys.modules.items()) if n == "regcount" or n.startswith("regcount.")]
        installed, missing = set(), []
        for modname, attr, span, callers in HOOKS:
            if span not in span_names:
                continue
            try:
                orig = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(orig, span)
            for mod in modules:
                if callers is not None and mod.__name__ not in callers:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif getattr(value, "__wrapped__", None) is orig and hasattr(value, "cache_info"):
                        cached = functools.lru_cache(maxsize=value.cache_info().maxsize)(wrapped)
                        setattr(mod, key, cached)
            installed.add(span)
        return sorted(installed), missing


def run_traced(mode: str, out_path: str, args: list[str]) -> int:
    """Run regcount's main(args) under the hooks of mode; write the spans to
    out_path and return main's exit status."""
    import regcount.cli

    tracer = Tracer()
    spans = ALL_SPANS if mode == "full" else set(OFF_SPANS)
    installed, missing = tracer.install(spans)
    root = tracer.open("main")
    rc = regcount.cli.main(args)
    tracer.close(root)
    data = {
        "mode": mode,
        "installed": installed,
        "missing": missing,
        "names": tracer.names,
        "spans": tracer.spans,
        "items": tracer.items,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return rc


def fan_out_ratio(times: dict[tuple[str, int], float]) -> float:
    """Time at one worker over time at two, summed over the commands run at
    both; 0 when there are none.  times maps (command, workers) to seconds."""
    pairs = [(times[(key, 1)], t) for (key, workers), t in times.items() if workers == 2 and (key, 1) in times]
    return sum(a for a, _ in pairs) / sum(b for _, b in pairs) if pairs else 0.0


def main_wall(data: dict) -> float:
    _, start, end, _, _ = data["spans"][0]
    return end - start


def _summarise(data: dict, acc: dict, leg: int) -> None:
    """Add one full-mode span file to the per-span totals in acc."""
    names, spans = data["names"], data["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (nid, start, end, parent, gid) in enumerate(spans):
        name = names[nid]
        dur = end - start
        acc["calls"][name] = acc["calls"].get(name, 0) + 1
        acc["dur"][name] = acc["dur"].get(name, 0.0) + dur
        acc["self"][name] = acc["self"].get(name, 0.0) + dur - child[i]
        if gid >= 0:
            acc["graphs"].setdefault(name, set()).add((leg, gid))
        if name == "min_code":
            p = parent
            while p >= 0 and names[spans[p][0]] not in MIN_CODE_CALLERS:
                p = spans[p][3]
            if p >= 0:
                caller = MIN_CODE_CALLERS[names[spans[p][0]]]
                acc["min_code"][caller] = acc["min_code"].get(caller, 0.0) + dur
    for name, count in data["items"].items():
        acc["items"][name] = acc["items"].get(name, 0) + count


def layer_metrics(legs: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics of one workload from its traced legs.

    Each leg is {"mode", "key", "workers", "pair", "verdicts",
    "report_bytes", "data"}; legs sharing "pair" ran the same command in
    modes off and full, legs sharing "key" the same command at other worker
    counts.
    Returns (values, absent metric names, missing hook targets).
    """
    acc = {k: {} for k in ("calls", "dur", "self", "graphs", "min_code", "items")}
    full = [leg for leg in legs if leg["mode"] == "full"]
    off = [leg for leg in legs if leg["mode"] == "off"]
    for i, leg in enumerate(full):
        _summarise(leg["data"], acc, i)
    calls, dur, own = acc["calls"], acc["dur"], acc["self"]

    def per_graph(name):
        distinct = len(acc["graphs"].get(name, ()))
        return calls.get(name, 0) / distinct if distinct else 0.0

    def pmap_spans(leg):
        data = leg["data"]
        return [s for s in data["spans"] if data["names"][s[0]] == "pmap"]

    off_wall = {leg["pair"]: main_wall(leg["data"]) for leg in off}
    overhead = sum(main_wall(leg["data"]) - off_wall[leg["pair"]] for leg in full)
    walls = {(leg["key"], leg["workers"]): main_wall(leg["data"]) for leg in off}
    pmap_s = {(leg["key"], leg["workers"]): sum(e - s for _, s, e, _, _ in pmap_spans(leg)) for leg in off}
    fanned = [key for key, workers in pmap_s if workers == 2 and (key, 1) in pmap_s]
    pmap_w1 = sum(pmap_s[(key, 1)] for key in fanned)
    pmap_w2 = sum(pmap_s[(key, 2)] for key in fanned)
    serial_prefix = 0.0
    for leg in off:
        first = pmap_spans(leg)
        if leg["workers"] == 2 and first:
            serial_prefix += first[0][1] - leg["data"]["spans"][0][1]

    values = {
        "generate.s": own.get("generate", 0.0),
        "generate.classes": acc["items"].get("generate", 0),
        "canon.min_code.calls": calls.get("min_code", 0),
        "canon.min_code.s": dur.get("min_code", 0.0),
        "canon.min_code.s.by_counting": acc["min_code"].get("by_counting", 0.0),
        "canon.min_code.s.by_generate": acc["min_code"].get("by_generate", 0.0),
        "canon.min_code.s.by_labels": acc["min_code"].get("by_labels", 0.0),
        "counting.matching_polynomial.calls": calls.get("matching_polynomial", 0),
        "counting.matching_polynomial.s": own.get("matching_polynomial", 0.0),
        "counting.matching_polynomial.per_graph": per_graph("matching_polynomial"),
        "counting.independence_polynomial.calls": calls.get("independence_polynomial", 0),
        "counting.independence_polynomial.s": own.get("independence_polynomial", 0.0),
        "counting.independence_polynomial.per_graph": per_graph("independence_polynomial"),
        "counting.count_homomorphisms.calls": calls.get("count_homomorphisms", 0),
        "counting.count_homomorphisms.s": own.get("count_homomorphisms", 0.0),
        "bounds.log2.calls": calls.get("log2", 0),
        "bounds.log2.s": own.get("log2", 0.0),
        "bounds.closed_form.s": own.get("closed_form", 0.0),
        "verify.checks.s": own.get("checks", 0.0),
        "verify.verdicts": sum(leg["verdicts"] for leg in full),
        "verify.sort.calls": calls.get("sort", 0),
        "verify.sort.s": own.get("sort", 0.0),
        "cli.serialize.s": dur.get("serialize", 0.0),
        "cli.report_bytes": sum(leg["report_bytes"] for leg in full),
        "cli.serial_prefix_s": serial_prefix,
        "cli.pmap.s.w1": pmap_w1,
        "cli.pmap.s.w2": pmap_w2,
        "cli.pmap.efficiency": pmap_w1 / (2 * pmap_w2) if pmap_w2 else 0.0,
        "speedup_w2": fan_out_ratio(walls),
        "trace.overhead_s": overhead,
    }
    lost = set()
    for leg in legs:
        wanted = ALL_SPANS if leg["mode"] == "full" else set(OFF_SPANS)
        lost |= wanted - set(leg["data"]["installed"])
    absent = sorted(name for name, spans in METRIC_SPANS.items() if lost.intersection(spans))
    missing = sorted({m for leg in legs for m in leg["data"]["missing"]})
    return {k: v for k, v in values.items() if k not in absent}, absent, missing


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[1] not in ("full", "off"):
        sys.exit("usage: tracer.py full|off SPANS_OUT -- REGCOUNT_ARGS...")
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
