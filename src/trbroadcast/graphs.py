"""Finite graph families with exact closed-form distance oracles.

Four families are supported: powers of paths, powers of cycles,
rectangular grids, and rectangular tori (the finite surrogate for the
infinite grid). A spec computes its box (rows, cols, k, wrap) once: one
row of n with power k for a path or cycle power, rows x cols with k = 1
for a grid or torus, wrapped on cycles and tori. Distances (in O(1)),
balls and reflection orbits read the box, not the family. `neighbors`
stays per family: BFS over its explicit edges is the independent
oracle that cross-checks them.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import InputError


class Family(str, Enum):
    """Graph family tag, also the prefix of the textual encoding."""

    PATH = "path"
    CYCLE = "cycle"
    GRID = "grid"
    TORUS = "torus"


@dataclass(frozen=True)
class GraphSpec:
    """One finite graph: a family tag plus its size parameters.

    Vertices are dense 0-based indices. Path and cycle powers use the
    natural ordering; grids and tori are row-major, index = row * cols
    + col. In a k-th power two vertices are adjacent when the base
    path/cycle distance between them is at most k.
    """

    family: Family
    n: int = 0
    k: int = 1
    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise InputError(f"graph family must be a Family, got {self.family!r}")
        for name in ("n", "k", "rows", "cols"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputError(f"graph {name} must be an integer, got {value!r}")
        if self.family in (Family.PATH, Family.CYCLE):
            if self.n < 1:
                raise InputError(f"{self.family.value}: need n >= 1, got {self.n}")
            if self.k < 1:
                raise InputError(f"{self.family.value}: need k >= 1, got {self.k}")
            if self.rows or self.cols:
                raise InputError(f"{self.family.value}: rows/cols not applicable")
            box = (1, self.n, self.k, self.family is Family.CYCLE)
        else:
            if self.rows < 1 or self.cols < 1:
                raise InputError(f"{self.family.value}: need rows >= 1 and cols >= 1")
            if self.n:
                raise InputError(f"{self.family.value}: n not applicable, use rows x cols")
            if self.k != 1:
                raise InputError(f"{self.family.value}: does not take a power parameter")
            box = (self.rows, self.cols, 1, self.family is Family.TORUS)
        # Not a field: repr, equality, hashing and asdict never see it.
        object.__setattr__(self, "_box", box)

    @classmethod
    def path_power(cls, n: int, k: int = 1) -> "GraphSpec":
        return cls(Family.PATH, n=n, k=k)

    @classmethod
    def cycle_power(cls, n: int, k: int = 1) -> "GraphSpec":
        return cls(Family.CYCLE, n=n, k=k)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "GraphSpec":
        return cls(Family.GRID, rows=rows, cols=cols)

    @classmethod
    def torus(cls, rows: int, cols: int) -> "GraphSpec":
        return cls(Family.TORUS, rows=rows, cols=cols)

    @property
    def num_vertices(self) -> int:
        return self._box[0] * self._box[1]


def _check_vertex(spec: GraphSpec, v: int) -> None:
    if not 0 <= v < spec.num_vertices:
        raise InputError(f"vertex {v} out of range for {format_graph_spec(spec)}")


def distance(spec: GraphSpec, u: int, v: int) -> int:
    """Shortest-path distance between two vertices, in O(1).

    From the box: the row offset plus ceil(column offset / k), each the
    shorter way round when the box wraps. So ceil(|i - j| / k) on a path
    power, on the shorter arc on a cycle, and Manhattan on grids and tori.
    """
    _check_vertex(spec, u)
    _check_vertex(spec, v)
    rows, cols, k, wrap = spec._box
    r1, c1 = divmod(u, cols)
    r2, c2 = divmod(v, cols)
    dr = abs(r1 - r2)
    dc = abs(c1 - c2)
    if wrap:
        dr = min(dr, rows - dr)
        dc = min(dc, cols - dc)
    return dr + -(-dc // k)


def _axis(c: int, length: int, span: int, wrap: bool) -> list[tuple[int, int]]:
    """(x, |x - c|) for every coordinate x within span of c on one axis of
    the given length, in coordinate order.

    A clipped axis stops at its ends. A wrapped axis measures the shorter
    way round and lists each coordinate once, also when 2 * span + 1
    reaches the whole axis.
    """
    if not wrap:
        lo, hi = max(0, c - span), min(length, c + span + 1)
        return list(zip(range(lo, hi), map(abs, range(lo - c, hi - c))))
    if 2 * span + 1 >= length:
        return [(x, s if 2 * s <= length else length - s)
                for x, s in enumerate(map(abs, range(-c, length - c)))]
    return sorted((x % length, abs(x - c)) for x in range(c - span, c + span + 1))


def near(spec: GraphSpec, v: int, radius: int) -> list[tuple[int, int]]:
    """(u, distance(spec, v, u)) for every vertex u within radius of v, in
    index order.

    Built from the spec's box in O(|ball|), without a pass over the
    other vertices: one row (a path or cycle power) walks one axis of
    span radius * k and takes ceil(offset / k); more rows (k = 1) walk
    the rows within radius and, in each, the columns within radius - dy.
    Unwrapped boxes clip at the ends, wrapped ones wrap.
    """
    _check_vertex(spec, v)
    if radius < 0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    rows, cols, k, wrap = spec._box
    if rows == 1:
        return [(u, -(-s // k)) for u, s in _axis(v, cols, radius * k, wrap)]
    row, col = divmod(v, cols)
    out = []
    for y, dy in _axis(row, rows, radius, wrap):
        base = y * cols
        out.extend((base + x, dy + dx) for x, dx in _axis(col, cols, radius - dy, wrap))
    return out


def ball(spec: GraphSpec, v: int, radius: int) -> list[int]:
    """Sorted list of vertices within the given distance of v."""
    return [u for u, _ in near(spec, v, radius)]


def neighbors(spec: GraphSpec, v: int) -> list[int]:
    """Adjacency list entry of v, from the family definition: the BFS
    referee's oracle, so it does not read the box that it checks."""
    _check_vertex(spec, v)
    nv = spec.num_vertices
    if spec.family is Family.PATH:
        return [u for u in range(max(0, v - spec.k), min(nv, v + spec.k + 1)) if u != v]
    if spec.family is Family.CYCLE:
        out = {(v + s) % spec.n for s in range(-spec.k, spec.k + 1)}
        out.discard(v)
        return sorted(out)
    row, col = divmod(v, spec.cols)
    out = set()
    if spec.family is Family.GRID:
        if row > 0:
            out.add(v - spec.cols)
        if row + 1 < spec.rows:
            out.add(v + spec.cols)
        if col > 0:
            out.add(v - 1)
        if col + 1 < spec.cols:
            out.add(v + 1)
    else:
        out.add(((row - 1) % spec.rows) * spec.cols + col)
        out.add(((row + 1) % spec.rows) * spec.cols + col)
        out.add(row * spec.cols + (col - 1) % spec.cols)
        out.add(row * spec.cols + (col + 1) % spec.cols)
        out.discard(v)
    return sorted(out)


def bfs_distances_from(spec: GraphSpec, u: int) -> list[int]:
    """All distances from u via breadth-first search over explicit edges.

    Deliberately independent of the closed forms so it can referee them.
    """
    _check_vertex(spec, u)
    dist = [-1] * spec.num_vertices
    dist[u] = 0
    queue = deque([u])
    while queue:
        w = queue.popleft()
        base = dist[w] + 1
        for x in neighbors(spec, w):
            if dist[x] < 0:
                dist[x] = base
                queue.append(x)
    return dist


def reflection_orbits(spec: GraphSpec) -> list[int]:
    """Orbit id of every vertex under the graph's reflections, with ids
    numbered in the order of each orbit's least vertex.

    The reflections are the row flip and the column flip of the spec's
    box (on one row, the reversal of a path or cycle power), plus the
    transpose when it is square. They preserve distance and generate a
    group of order 2, 4 or 8, whose orbits are read off in closed form:
    two vertices share one exactly when their coordinates folded onto
    the first half of each axis agree, as an unordered pair on a square.
    """
    rows, cols = spec._box[:2]
    keys = [(min(y, rows - 1 - y), min(x, cols - 1 - x))
            for y in range(rows) for x in range(cols)]
    if rows == cols:
        keys = [tuple(sorted(key)) for key in keys]
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def format_graph_spec(spec: GraphSpec) -> str:
    """Canonical textual encoding, the inverse of parse_graph_spec."""
    if spec.family in (Family.PATH, Family.CYCLE):
        return f"{spec.family.value}:n={spec.n},k={spec.k}"
    return f"{spec.family.value}:{spec.rows}x{spec.cols}"


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse a textual graph encoding.

    Examples: ``path:n=10,k=2``, ``cycle:n=12,k=3``, ``grid:4x6``,
    ``torus:41x41``. Grid and torus take only their side lengths;
    handing them a power parameter is an error.
    """
    head, sep, body = text.strip().partition(":")
    if not sep or not body:
        raise InputError(f"malformed graph spec {text!r}")
    try:
        family = Family(head.strip().lower())
    except ValueError:
        raise InputError(f"unknown graph family {head!r}") from None
    if family in (Family.GRID, Family.TORUS):
        match = re.fullmatch(r"(\d+)x(\d+)", body.strip())
        if not match:
            raise InputError(
                f"{family.value} takes ROWSxCOLS (no other parameters), got {body!r}"
            )
        return GraphSpec(family, rows=int(match.group(1)), cols=int(match.group(2)))
    fields: dict[str, int] = {}
    for item in body.split(","):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in ("n", "k") or key in fields:
            raise InputError(f"bad field {item!r} in graph spec {text!r}")
        try:
            fields[key] = int(value)
        except ValueError:
            raise InputError(f"bad integer in {item!r}") from None
    if "n" not in fields:
        raise InputError(f"{family.value} specs need n=<int>")
    return GraphSpec(family, n=fields["n"], k=fields.get("k", 1))
