"""Per-layer spans for the traced run of the trbroadcast benchmark.

In a traced pass the benchmark swaps the library functions that the CLI
looks up through its module globals (and the few that one library
module reaches in another) for wrappers defined here, which record one
span per call. The program itself is not changed, and the original
functions are put back after each traced pass.

A span is [name, start, end, parent, job, attrs]: the layer-qualified
function name, perf_counter times, the index of the enclosing span, the
job index within the pass, and counts taken at that boundary. Spans stay
in memory until the child process writes them out at the end.

Around each solve the wrapper also runs probes, marked in their attrs:
`graphs.ball` (ball(v, t-1) for every vertex), `graphs.distance`
(distance from up to 17 sources to every vertex) and `solver.setup`
(solve with node_budget=1, which builds the tables and explores one
node). Probes are excluded from the layer shares and counted in the
tracing overhead.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager

from trbroadcast import cli, formulas, lattice
from trbroadcast.graphs import ball, distance
from trbroadcast.lattice import axis_periods

LAYERS = ("cli", "graphs", "solver", "signal", "formulas", "lattice")

# Module globals replaced in a traced pass. The CLI reaches every layer
# through its own imported names; formulas audits each construction with
# is_broadcasting; promote, profile and window reach verify_periodic,
# excess_report and excess_at inside lattice.
PATCHES = {
    cli: ("parse_graph_spec", "format_graph_spec", "solve", "is_broadcasting",
          "towers_from_json_dict", "construct_path_towers", "construct_cycle_towers",
          "gamma_path_power", "gamma_cycle_power", "config_from_json_dict", "t1_tiling",
          "t3_tiling", "density", "verify_periodic", "excess_report", "window_excess",
          "promote_check", "promotion_excess_profile"),
    formulas: ("is_broadcasting",),
    lattice: ("verify_periodic", "excess_report", "excess_at"),
}
CONSTRUCTIONS = ("formulas.construct_path_towers", "formulas.construct_cycle_towers")


def _annotate(name: str, attrs: dict, args: tuple, result) -> None:
    """Record the work a call did, in counts that do not depend on timing."""
    if name == "signal.is_broadcasting":
        towers = args[0]
        scanned = towers.spec.num_vertices if result.ok else result.deficient_vertex + 1
        attrs.update(ok=result.ok, pairs=scanned * len(towers.vertices))
    elif name == "lattice.verify_periodic":
        config = args[0]
        if result.ok:
            attrs["cells"] = config.index
        else:
            # fundamental_domain lists cells row by row, p1 to a row.
            x, y = result.witness
            attrs["cells"] = y * axis_periods(config)[0] + x + 1
    elif name == "lattice.excess_report":
        attrs["cells"] = args[0].index
    elif name == "lattice.excess_at":
        attrs["cells"] = 1


def _distance_probe(spec, sources) -> None:
    nv = spec.num_vertices
    for u in sources:
        for v in range(nv):
            distance(spec, u, v)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self.repairs = 0
        self._stack: list[int] = []
        self._probed: set = set()

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        """Run fn inside a span; return its result and the span."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job,
                {"probe": True} if probe else {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        return result, span

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if name == "solver.solve":
            return self._solve(fn)

        def wrapper(*args, **kwargs):
            result, span = self.call(name, fn, *args, **kwargs)
            _annotate(name, span[5], args, result)
            return result

        return wrapper

    def _solve(self, solve):
        def wrapper(spec, params, node_budget=cli.DEFAULT_NODE_BUDGET):
            nv = spec.num_vertices
            if (spec, params.t) not in self._probed:
                self._probed.add((spec, params.t))
                _, span = self.call("graphs.ball",
                                    lambda: [ball(spec, v, params.t - 1) for v in range(nv)],
                                    probe=True)
                span[5]["calls"] = nv
            if spec not in self._probed:
                self._probed.add(spec)
                sources = range(0, nv, max(1, nv // 16))
                _, span = self.call("graphs.distance", _distance_probe, spec, sources,
                                    probe=True)
                span[5]["calls"] = len(sources) * nv
            self.call("solver.setup", solve, spec, params, node_budget=1, probe=True)
            result, span = self.call("solver.solve", solve, spec, params, node_budget)
            span[5].update(nodes=result.nodes_explored, proved=result.proof_of_optimality)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap in the span wrappers for one traced pass."""
        saved = [(module, name, getattr(module, name))
                 for module, names in PATCHES.items() for name in names]
        tracer = self

        class RepairCounter(logging.Handler):
            def emit(self, record):
                tracer.repairs += 1

        logger = logging.getLogger(formulas.__name__)
        level, handler = logger.level, RepairCounter()
        self._probed.clear()
        try:
            for module, name, fn in saved:
                setattr(module, name, self._wrap(fn))
            logger.addHandler(handler)
            logger.setLevel(logging.INFO)
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)
            logger.removeHandler(handler)
            logger.setLevel(level)


def summarize(spans: list[list], repairs: int, passes: int) -> dict:
    """Per-layer metrics per traced pass, plus each layer's share of job time.

    Self time is a span's duration less the part its child spans cover.
    Job time is the time spent in cli.main less the probes inside it.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    span_count = dict.fromkeys(LAYERS, 0)
    job_s = 0.0
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        key = name
        if name == "signal.is_broadcasting":
            key = "signal.audit_ok" if attrs["ok"] else "signal.audit_fail"
        total[key] = total.get(key, 0.0) + dur
        for field in ("calls", "pairs", "cells", "nodes"):
            if field in attrs:
                count[f"{key}.{field}"] = count.get(f"{key}.{field}", 0) + attrs[field]
        if attrs.get("probe"):
            job_s -= dur
            continue
        span_count[layer] += 1
        self_s[layer] += dur - covered[i]
        if name == "cli.main":
            job_s += dur
        if name == "solver.solve" and not attrs["proved"]:
            count["solver.unproved"] = count.get("solver.unproved", 0) + 1

    def t(key):
        return total.get(key, 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    search = max(0.0, t("solver.solve") - t("solver.setup"))
    audit = t("signal.audit_ok") + t("signal.audit_fail")
    pairs = count.get("signal.audit_ok.pairs", 0) + count.get("signal.audit_fail.pairs", 0)
    cells = sum(v for k, v in count.items() if k.startswith("lattice.") and k.endswith(".cells"))
    built = sum(1 for s in spans if s[0] in CONSTRUCTIONS)
    nodes = count.get("solver.solve.nodes", 0)
    metrics = {
        "cli.overhead_s": self_s["cli"],
        "graphs.ball_s": t("graphs.ball"),
        "graphs.distance_per_s": rate(count.get("graphs.distance.calls", 0), t("graphs.distance")),
        "solver.setup_s": t("solver.setup"),
        "solver.search_s": search,
        "solver.nodes": nodes,
        "solver.nodes_per_s": rate(nodes, search),
        "solver.unproved": count.get("solver.unproved", 0),
        "signal.audit_ok_s": t("signal.audit_ok"),
        "signal.audit_fail_s": t("signal.audit_fail"),
        "signal.pairs_per_s": rate(pairs, audit),
        "formulas.construct_s": sum(t(name) for name in CONSTRUCTIONS),
        "formulas.first_audit_pass_ratio": (built - repairs) / built if built else 0.0,
        "lattice.cells": cells,
        "lattice.cells_per_s": rate(cells, self_s["lattice"]),
        "lattice.verify_s": t("lattice.verify_periodic"),
        "lattice.excess_s": t("lattice.excess_report") + t("lattice.excess_at"),
    }
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS[1:]})
    # Sums become per-pass figures; ratios and rates are already per pass.
    for name in metrics:
        if not name.endswith(("_per_s", "_ratio")):
            metrics[name] /= passes
    return {
        "metrics": metrics,
        "job_s": job_s / passes,
        "shares": {layer: self_s[layer] / job_s if job_s > 0 else 0.0 for layer in LAYERS},
        "span_count": {layer: n // passes for layer, n in span_count.items()},
    }
