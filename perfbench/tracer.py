"""Span recorder for the ribbongraph benchmark.

The recorder works from outside the package: :meth:`Recorder.install`
replaces each traced public function by a wrapper in every ``ribbongraph``
module namespace that bound it.  Rebinding every namespace matters because
``from .topology import surface_stats`` copies the binding into the
importing module, while ``RibbonGraph.canonical_code`` looks up the module
global ``core.canonical_form`` at call time.

Each call records one span ``[name, start_ns, end_ns, parent]`` in memory;
``parent`` is the index of the innermost traced call that was open, or -1.
A span's self time is its duration minus the durations of its direct
children.  A few counters are taken at the same boundaries, after the
span has closed, so that their cost is not charged to the layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "ribbongraph"

# Public functions traced, as ``module.function`` within the package.
TRACED = (
    "cli.main",
    "io_text.parse",
    "io_text.emit",
    "verify.generate",
    "verify.check_suite",
    "moves.move_related",
    "decomposition.biseparation_data",
    "decomposition.join_summand_splits",
    "decomposition.prime_factorization",
    "duality.partial_dual",
    "topology.trace_walks",
    "topology.surface_stats",
    "topology.connected_components",
    "core.canonical_form",
    "core.from_arrow_presentation",
    "core.induced_subgraph",
)

# Layers reported with both their call count and their self time; the
# remaining traced layers report self time only.
CALLS_AND_SELF = (
    "core.canonical_form",
    "core.from_arrow_presentation",
    "topology.trace_walks",
    "topology.surface_stats",
    "duality.partial_dual",
    "core.induced_subgraph",
    "topology.connected_components",
    "decomposition.biseparation_data",
    "decomposition.join_summand_splits",
    "decomposition.prime_factorization",
    "moves.move_related",
)
SELF_ONLY = (
    "verify.check_suite",
    "verify.generate",
    "io_text.parse",
    "io_text.emit",
    "cli.main",
)

# Metrics that count work rather than time: two traced runs with the same
# seed must report them identically.
COUNT_METRICS = tuple(f"{n}.calls" for n in CALLS_AND_SELF) + (
    "decomposition.biseparation_data.certificate_ratio",
    "decomposition.biseparation_data.repeat_ratio",
    "moves.move_related.found_ratio",
    "moves.move_related.partial_duals_per_call",
    "verify.generate.kept_ratio",
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Recorder:
    """Records spans around the traced functions of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._seen_subsets: set = set()
        self.certificates = 0
        self.repeats = 0
        self.found = 0
        self.kept = 0

    def _wrap(self, name, fn, after):
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # Counters taken when a traced call returns.  Every caller in the
    # package passes these arguments positionally.

    def _after_biseparation(self, args, result) -> None:
        key = (args[0], frozenset(args[1]))
        if key in self._seen_subsets:
            self.repeats += 1
        else:
            self._seen_subsets.add(key)
        if result[1] is not None:
            self.certificates += 1

    def _after_move_search(self, args, result) -> None:
        self.found += result.found

    def _after_generate(self, args, result) -> None:
        self.kept += len(result.graphs)

    def install(self) -> None:
        """Wrap every traced function in every package namespace binding it."""
        hooks = {
            "decomposition.biseparation_data": self._after_biseparation,
            "moves.move_related": self._after_move_search,
            "verify.generate": self._after_generate,
        }
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for qualname in TRACED:
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapped = self._wrap(qualname, original, hooks.get(qualname))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every span recorded, as ``{name: (value, unit)}``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        in_move = [False] * len(spans)
        in_generate = [False] * len(spans)
        calls: dict[str, int] = {n: 0 for n in TRACED}
        self_ns: dict[str, int] = {n: 0 for n in TRACED}
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                in_move[i] = in_move[parent]
                in_generate[i] = in_generate[parent]
            in_move[i] = in_move[i] or name == "moves.move_related"
            in_generate[i] = in_generate[i] or name == "verify.generate"
        duals_in_moves = canon_in_generate = 0
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if name == "duality.partial_dual" and in_move[i]:
                duals_in_moves += 1
            if name == "core.canonical_form" and in_generate[i]:
                canon_in_generate += 1

        out: dict[str, tuple[float, str]] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        bisep = calls["decomposition.biseparation_data"]
        out["decomposition.biseparation_data.certificate_ratio"] = (
            _ratio(self.certificates, bisep), "ratio")
        out["decomposition.biseparation_data.repeat_ratio"] = (
            _ratio(self.repeats, bisep), "ratio")
        searches = calls["moves.move_related"]
        out["moves.move_related.found_ratio"] = (_ratio(self.found, searches), "ratio")
        out["moves.move_related.partial_duals_per_call"] = (
            _ratio(duals_in_moves, searches), "count")
        out["verify.generate.kept_ratio"] = (_ratio(self.kept, canon_in_generate), "ratio")
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
