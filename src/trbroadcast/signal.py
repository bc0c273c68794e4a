"""Signal accounting on finite graphs.

A tower at u delivers max(0, t - d(u, v)) to vertex v. A tower set
broadcasts when every vertex collects at least r raw signal. Capped
sums (each tower's contribution clipped at r) give the lower bound
certified by vertex weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import GraphSpec, format_graph_spec, near, parse_graph_spec


@dataclass(frozen=True)
class SignalParams:
    """Transmission strength t and per-vertex demand r, both >= 1."""

    t: int
    r: int

    def __post_init__(self) -> None:
        if self.t < 1 or self.r < 1:
            raise InputError(f"need t >= 1 and r >= 1, got t={self.t}, r={self.r}")


@dataclass(frozen=True)
class TowerSet:
    """Strictly increasing tower indices on a fixed graph."""

    spec: GraphSpec
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        nv = self.spec.num_vertices
        prev = -1
        for v in self.vertices:
            if type(v) is not int:
                raise InputError(f"tower index {v!r} is not an integer")
            if not 0 <= v < nv:
                raise InputError(f"tower index {v} out of range")
            if v <= prev:
                raise InputError("tower indices must be strictly increasing, no duplicates")
            prev = v

    def to_json_dict(self) -> dict:
        return {"spec": format_graph_spec(self.spec), "towers": list(self.vertices)}


def towers_from_json_dict(data: dict) -> TowerSet:
    """Rebuild a TowerSet from its JSON form {"spec": ..., "towers": [...]}."""
    if not isinstance(data, dict) or "spec" not in data or "towers" not in data:
        raise InputError("tower file needs keys 'spec' and 'towers'")
    spec = parse_graph_spec(str(data["spec"]))
    try:
        towers = tuple(data["towers"])
    except TypeError:
        raise InputError("'towers' must be a list of integers") from None
    return TowerSet(spec, towers)


@dataclass(frozen=True)
class BroadcastCheck:
    """Outcome of a broadcast verification.

    When ok is false, deficient_vertex is the least-index vertex whose
    raw signal falls short and signal is that raw value.
    """

    ok: bool
    deficient_vertex: int | None = None
    signal: int | None = None


def is_broadcasting(towers: TowerSet, params: SignalParams) -> BroadcastCheck:
    """Check the raw demand at every vertex; report the first shortfall.

    Stamps t - d over the radius t - 1 ball of each tower into one field,
    then scans it in index order. The cost is towers x |ball| kernel
    entries, never more than towers x V, plus one pass over V. There is
    no early exit: a shortfall at a small index costs a full stamp.
    """
    spec = towers.spec
    t, r = params.t, params.r
    raw = [0] * spec.num_vertices
    for u in towers.vertices:
        for v, d in near(spec, u, t - 1):
            raw[v] += t - d
    for v, signal in enumerate(raw):
        if signal < r:
            return BroadcastCheck(False, v, signal)
    return BroadcastCheck(True)


def weighted_bound(spec: GraphSpec, params: SignalParams, weights: list[int]) -> tuple[int, int]:
    """Least tower count that integer vertex weights W >= 0 certify, and
    the scale D behind it.

    Every vertex collects at least r capped signal from a broadcasting
    set, so r * sum(W) is at most the number of towers times D, the
    largest sum of min(r, t - d) * W_v that one tower delivers. Returns
    (ceil(r * sum(W) / D), D), with D computed here from `near` alone.
    """
    t, r = params.t, params.r
    if len(weights) != spec.num_vertices or any(type(w) is not int or w < 0 for w in weights):
        raise InputError("weights must be one nonnegative integer per vertex")
    scale = max(sum(min(r, t - d) * weights[v] for v, d in near(spec, u, t - 1))
                for u in range(spec.num_vertices))
    return (-(-r * sum(weights) // scale) if scale else 0), scale
