"""Signal and excess accounting on finite graphs.

A tower at u delivers max(0, t - d(u, v)) to vertex v. A tower set
broadcasts when every vertex collects at least r raw signal. Capped
sums (each tower's contribution clipped at r) drive the excess and
efficiency bookkeeping.
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

    @classmethod
    def from_vertices(cls, spec: GraphSpec, vertices) -> "TowerSet":
        return cls(spec, tuple(sorted(vertices)))

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
class VertexAudit:
    vertex: int
    raw_signal: int
    capped_signal: int
    excess: int


@dataclass(frozen=True)
class BroadcastCheck:
    """Outcome of a broadcast verification.

    When ok is false, deficient_vertex is the least-index vertex whose
    raw signal falls short and signal is that raw value.
    """

    ok: bool
    deficient_vertex: int | None = None
    signal: int | None = None


def audit_vertex(towers: TowerSet, params: SignalParams, v: int) -> VertexAudit:
    """Raw and capped signal sums at one vertex, plus the capped excess."""
    placed = set(towers.vertices)
    raw = 0
    capped = 0
    for u, d in near(towers.spec, v, params.t - 1):
        if u in placed:
            f = params.t - d
            raw += f
            capped += min(params.r, f)
    return VertexAudit(v, raw, capped, capped - params.r)


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


def usable_cap_1d(params: SignalParams, k: int) -> int:
    """Most capped signal one tower can supply on a path or cycle power.

    Closed form ((2t - r - 1)k + 1) * r: the tower serves full demand r
    out to distance (t - r)k, then linearly less out to distance
    (t - 1)k, and the two tails fold into the same product.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    t, r = params.t, params.r
    if t < r:
        raise InputError(f"usable cap needs t >= r, got t={t}, r={r}")
    return ((2 * t - r - 1) * k + 1) * r


def usable_cap_2d(params: SignalParams) -> int:
    """Most capped signal one tower can supply on the infinite grid.

    Exact ring summation: demand r across the full-rate ball of radius
    t - r (which has 2(t-r)^2 + 2(t-r) + 1 cells), plus 4d * (t - d)
    over each partially served ring t - r < d <= t - 1.
    """
    t, r = params.t, params.r
    if t < r:
        raise InputError(f"usable cap needs t >= r, got t={t}, r={r}")
    inner = t - r
    total = r * (2 * inner * inner + 2 * inner + 1)
    for d in range(inner + 1, t):
        total += 4 * d * (t - d)
    return total

