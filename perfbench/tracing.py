"""Span tracing of the package's layers, from outside the package.

`Tracer.install` replaces each module attribute in `TARGETS` (the names
through which the searches call their layers) with a wrapper that records a
span: layer name, start, end and parent span.  Self time is a span's
duration minus its children's.  Work counts are read from arguments and
return values at the same boundaries.  `uninstall` puts the originals back,
so untraced passes run the package's own code with no wrapper in the way.

A name that no longer exists makes `install` raise: a renamed layer must
fail the traced run, not report zero time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

#: "module.attribute" -> layer.  Every attribute is the name a search looks
#: up at call time, so replacing it intercepts exactly the calls it makes.
TARGETS: dict[str, str] = {
    "cfsearch.optimal.gen_disc": "optimal.gen_disc",
    "cfsearch.mimo.gen_disc": "optimal.gen_disc",
    "cfsearch.optimal.gen_alpha_set": "optimal.gen_alpha_set",
    "cfsearch.optimal.quantize_gaussian_array": "rings.quantize",
    "cfsearch.optimal.quantize_eisenstein_array": "rings.quantize",
    "cfsearch.mimo.quantize_gaussian_array": "rings.quantize",
    "cfsearch.mimo.quantize_eisenstein_array": "rings.quantize",
    "cfsearch.baselines.quantize_gaussian_array": "rings.quantize",
    "cfsearch.optimal.cost_batch": "model.cost_batch",
    "cfsearch.mimo.cost_batch": "model.cost_batch",
    "cfsearch.baselines.cost_batch": "model.cost_batch",
    "cfsearch.optimal.cost_pruned_scan": "dfs.cost_pruned_scan",
    "cfsearch.mimo.cost_pruned_scan": "dfs.cost_pruned_scan",
    "cfsearch.baselines.cost_pruned_scan": "dfs.cost_pruned_scan",
    "cfsearch.optimal.cost_matrix": "model.gram",
    "cfsearch.optimal.phi_bound": "model.gram",
    "cfsearch.mimo.mimo_gram": "model.gram",
    "cfsearch.mimo.mimo_phi": "model.gram",
    "cfsearch.baselines.cost_matrix": "model.gram",
    "cfsearch.baselines.phi_bound": "model.gram",
    "cfsearch.bench.cost_matrix": "model.gram",
    "cfsearch.bench.phi_bound": "model.gram",
    "cfsearch.bench.mimo_gram": "model.gram",
    "cfsearch.bench.mimo_phi": "model.gram",
    "cfsearch.bench.search_optimal": "optimal.search_optimal",
    "cfsearch.bench.clll_search": "baselines.clll_search",
    "cfsearch.bench.qes_search": "baselines.qes_search",
    "cfsearch.bench.exhaustive_search": "baselines.exhaustive_search",
}

#: The public function each workload calls, traced as the operation's root span.
ROOTS = {
    "vector": ("cfsearch.optimal.search_optimal", "optimal.search_optimal"),
    "mimo": ("cfsearch.mimo.search_optimal_mimo", "mimo.search_optimal_mimo"),
    "oracle": ("cfsearch.baselines.exhaustive_search", "baselines.exhaustive_search"),
    "sweep": ("cfsearch.bench.run_sweep", "bench.run_sweep"),
}

#: Per-layer metrics: name -> (unit, better).  Every traced run reports all
#: of them; a layer a workload never calls reads 0.
METRICS: dict[str, tuple[str, str]] = {
    "rings.quantize.ms_per_op": ("ms", "lower"),
    "rings.quantize.rows_per_op": ("count", "lower"),
    "model.cost_batch.ms_per_op": ("ms", "lower"),
    "model.cost_batch.rows_per_op": ("count", "lower"),
    "model.cost_batch.rows_per_s": ("1/s", "higher"),
    "optimal.gen_disc.ms_per_op": ("ms", "lower"),
    "optimal.gen_disc.points_per_op": ("count", "lower"),
    "optimal.gen_alpha_set.ms_per_op": ("ms", "lower"),
    "optimal.alphas_per_op": ("count", "lower"),
    "optimal.search_optimal.self_ms_per_op": ("ms", "lower"),
    "dfs.cost_pruned_scan.ms_per_op": ("ms", "lower"),
    "dfs.nodes_per_op": ("count", "lower"),
    "dfs.nodes_per_s": ("1/s", "higher"),
    "dfs.cert_improved_per_op": ("ratio", "lower"),
    "mimo.search_optimal_mimo.self_ms_per_op": ("ms", "lower"),
    "mimo.tuple_candidates_per_op": ("count", "lower"),
    "mimo.subsets_skipped_per_op": ("count", "lower"),
    "baselines.clll_search.ms_per_op": ("ms", "lower"),
    "baselines.clll_iterations_per_op": ("count", "lower"),
    "baselines.qes_search.ms_per_op": ("ms", "lower"),
    "baselines.qes_candidates_per_op": ("count", "lower"),
    "baselines.exhaustive_search.ms_per_op": ("ms", "lower"),
    "baselines.exhaustive_candidates_per_op": ("count", "lower"),
    "bench.run_sweep.self_ms_per_op": ("ms", "lower"),
    "model.gram.ms_per_op": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_time_share": ("ratio", "higher"),
}


def resolve(target: str):
    """The object named "package.module.attribute"; raises if it is gone."""
    module, _, attr = target.rpartition(".")
    obj = getattr(importlib.import_module(module), attr, None)
    if not callable(obj):
        raise LookupError(f"traced name {target} does not exist")
    return obj


class Tracer:
    """Spans and counts for the layers in `TARGETS` plus one root per operation."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []  # [span index, children's time]
        self._originals: dict[str, object] = {}

    # -- span bookkeeping -------------------------------------------------
    def _call(self, layer, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dt = t1 - t0
            self.spans[index] = (layer, t0, t1, parent)
            self.incl[layer] += dt
            self.self_time[layer] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt
        self._count(layer, args, kwargs, out)
        return out

    def _count(self, layer, args, kwargs, out):
        c = self.counts
        if layer == "rings.quantize":
            c["quantize_rows"] += np.shape(args[0])[0]
        elif layer == "model.cost_batch":
            c["cost_rows"] += np.shape(args[0])[0]
        elif layer == "optimal.gen_disc":
            c["disc_points"] += out.points.size
        elif layer == "optimal.gen_alpha_set":
            c["alphas"] += out.alphas.size
        elif layer == "dfs.cost_pruned_scan":
            c["dfs_nodes"] += out[3]
            seed = kwargs.get("seed")
            if seed is not None:
                c["certifications"] += 1
                c["cert_improved"] += out[2] < seed[2]
        elif layer == "baselines.clll_search":
            c["clll_iterations"] += out.candidates_checked
        elif layer == "baselines.qes_search":
            c["qes_candidates"] += out.candidates_checked
        elif layer == "baselines.exhaustive_search":
            c["exhaustive_candidates"] += out.candidates_checked

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for target, layer in TARGETS.items():
            fn = self._originals.get(target) or resolve(target)
            self._originals[target] = fn
            module, _, attr = target.rpartition(".")
            setattr(importlib.import_module(module), attr, self.wrap(layer, fn))

    def uninstall(self) -> None:
        for target, fn in self._originals.items():
            module, _, attr = target.rpartition(".")
            setattr(importlib.import_module(module), attr, fn)

    # -- per-operation roots ----------------------------------------------
    def root(self, workload: str, fn, *args):
        """Call the workload's public function as one traced operation."""
        layer = ROOTS[workload][1]
        nodes_before = self.counts["dfs_nodes"]
        out = self._call(layer, fn, args, {})
        self.counts["ops"] += 1
        if workload == "mimo":
            # candidates_checked = unit vectors + tuple candidates + DFS nodes
            units = (4 if type(out.a_opt[0]).__name__ == "GaussianInt" else 6) * len(out.a_opt)
            nodes = self.counts["dfs_nodes"] - nodes_before
            self.counts["tuple_candidates"] += out.candidates_checked - units - nodes
            self.counts["subsets_skipped"] += out.subsets_skipped
        return out

    def totals(self) -> dict:
        """Accumulated times and counts; sums of these merge across processes."""
        return {"incl": dict(self.incl), "self": dict(self.self_time), "counts": dict(self.counts)}


def layer_metrics(totals: dict, traced_s: float, untraced_ops_per_s: float) -> dict[str, float]:
    """Per-layer metrics per traced operation from merged `Tracer.totals`.

    `traced_s` is the wall time of the traced passes; the overhead ratio
    compares the untraced passes' throughput with the traced one.
    """
    ms = 1e3
    incl = defaultdict(float, totals["incl"])
    own = defaultdict(float, totals["self"])
    c = defaultdict(float, totals["counts"])
    ops = c["ops"]

    def per(v):
        return v / ops

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "rings.quantize.ms_per_op": per(ms * incl["rings.quantize"]),
        "rings.quantize.rows_per_op": per(c["quantize_rows"]),
        "model.cost_batch.ms_per_op": per(ms * incl["model.cost_batch"]),
        "model.cost_batch.rows_per_op": per(c["cost_rows"]),
        "model.cost_batch.rows_per_s": ratio(c["cost_rows"], incl["model.cost_batch"]),
        "optimal.gen_disc.ms_per_op": per(ms * incl["optimal.gen_disc"]),
        "optimal.gen_disc.points_per_op": per(c["disc_points"]),
        "optimal.gen_alpha_set.ms_per_op": per(ms * incl["optimal.gen_alpha_set"]),
        "optimal.alphas_per_op": per(c["alphas"]),
        "optimal.search_optimal.self_ms_per_op": per(ms * own["optimal.search_optimal"]),
        "dfs.cost_pruned_scan.ms_per_op": per(ms * incl["dfs.cost_pruned_scan"]),
        "dfs.nodes_per_op": per(c["dfs_nodes"]),
        "dfs.nodes_per_s": ratio(c["dfs_nodes"], incl["dfs.cost_pruned_scan"]),
        "dfs.cert_improved_per_op": ratio(c["cert_improved"], c["certifications"]),
        "mimo.search_optimal_mimo.self_ms_per_op": per(ms * own["mimo.search_optimal_mimo"]),
        "mimo.tuple_candidates_per_op": per(c["tuple_candidates"]),
        "mimo.subsets_skipped_per_op": per(c["subsets_skipped"]),
        "baselines.clll_search.ms_per_op": per(ms * incl["baselines.clll_search"]),
        "baselines.clll_iterations_per_op": per(c["clll_iterations"]),
        "baselines.qes_search.ms_per_op": per(ms * incl["baselines.qes_search"]),
        "baselines.qes_candidates_per_op": per(c["qes_candidates"]),
        "baselines.exhaustive_search.ms_per_op": per(ms * incl["baselines.exhaustive_search"]),
        "baselines.exhaustive_candidates_per_op": per(c["exhaustive_candidates"]),
        "bench.run_sweep.self_ms_per_op": per(ms * own["bench.run_sweep"]),
        "model.gram.ms_per_op": per(ms * incl["model.gram"]),
        "trace.overhead_ratio": untraced_ops_per_s / (ops / traced_s),
        "trace.self_time_share": sum(own.values()) / traced_s,
    }
