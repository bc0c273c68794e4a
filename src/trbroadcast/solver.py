"""Exact minimum tower counts by branch and bound.

Depth-first search over tower sets. Each node branches on the
least-index deficient vertex; the only useful candidates are vertices
within t - 1 of it, taken in index order, which makes runs fully
deterministic. Pruning compares the incumbent against the remaining
capped demand divided by one tower's best possible usable supply.

One rule keeps the search off sets it cannot improve on: it looks only
for a set smaller than the best one so far, and checks this before it
places each tower, so every set it records is smaller than the one
before. The first best is a greedy cover, which `solve` returns when
the search finds nothing smaller, whether it proved that or was cut by
the budget. The greedy is lazy: capped gains only shrink as signal
grows, so it re-scores the tower with the largest stale gain and places
it only if the fresh gain still leads. And once a frame has searched
one candidate's subtree, that candidate stays banned until the frame
pops, since every set holding it has been searched.

`_search` knows nothing of the graph, the greedy or the audit: it
reads the cover table, r, one tower's largest capped supply, the limit
and the node budget. It is one loop over an explicit stack: `towers`
holds the towers on the current branch and `frames` the branch vertex,
next candidate index and banned towers at each depth, so depth is not
limited by recursion. Placing or removing a tower walks its `cover`
list, updating the raw signals and the remaining capped demand in
place.

Set-up builds one table, `cover`, from one radius t - 1 kernel call
(`graphs.near`) per vertex, so it costs V x |ball| entries rather than
V^2 distance calls. Distance is symmetric, so a vertex's list names
both the vertices its tower serves and its own candidate towers.

Before it returns, `solve` re-audits its witness with `is_broadcasting`,
which knows nothing of the search, and raises RuntimeError if the audit
fails. The audit stamps towers x |ball| entries and has no early exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import InputError
from .graphs import GraphSpec, format_graph_spec, near
from .signal import SignalParams, TowerSet, is_broadcasting

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome.

    proof_of_optimality is true only when the search space was fully
    exhausted below gamma. A proved witness is the greedy cover unless
    the search found a smaller set, and then the smallest it found. On
    budget exhaustion gamma/witness hold the best set found so far, at
    worst the greedy cover; they are upper bounds, never wrong answers
    presented as optimal. nodes_explored never exceeds the budget.
    """

    gamma: int
    witness: TowerSet
    nodes_explored: int
    proof_of_optimality: bool


def _greedy_cover(cover: list[list[tuple[int, int]]], supply: list[int], r: int) -> list[int]:
    """Towers placed one at a time, each with a largest capped gain on
    the remaining demand; of tied towers, the one re-scored first."""
    raw = [0] * len(cover)
    deficit = len(cover) * r
    heap = [(-s, u) for u, s in enumerate(supply)]
    heapify(heap)
    towers = []
    while deficit:
        _, u = heappop(heap)
        gain = sum(min(g, r - raw[w]) for w, g in cover[u] if raw[w] < r)
        if heap and gain < -heap[0][0]:
            heappush(heap, (-gain, u))
            continue
        towers.append(u)
        deficit -= gain
        for w, g in cover[u]:
            raw[w] += g
    return towers


def _search(cover: list[list[tuple[int, int]]], r: int, cap: int, limit: int,
            node_budget: int) -> tuple[list[int] | None, int, bool]:
    """Smallest tower set below `limit` towers that the search finds.

    Returns (towers or None, nodes explored, whether the budget cut the
    search). A run that is not cut has proved that no set is smaller
    than the one it returns, or than `limit` when it returns None.
    `cap` is an upper bound on the capped supply of any one tower.
    """
    nv = len(cover)
    best = None
    raw = [0] * nv
    # banned[u]: u is on the branch or an earlier sibling of a frame on it.
    banned = bytearray(nv)
    deficit = nv * r
    towers: list[int] = []
    # frames[d]: [branch vertex, next index into its cover list, the
    # towers this frame banned] at depth d.
    frames: list[list] = []
    nodes = 0
    lo = 0
    while nodes < node_budget:
        nodes += 1
        if deficit == 0:
            best = towers.copy()
            limit = len(towers)
        else:
            # Any completion must add a tower within reach of the first
            # deficient vertex; signal only grows along a branch, so the
            # scan never needs to back up past lo.
            v = lo
            while raw[v] >= r:
                v += 1
            frames.append([v, 0, []])
        # Backtrack to the deepest frame that may still place a tower
        # below the limit and has an untried candidate, and place it;
        # the node it opens is the next loop iteration.
        while frames:
            frame = frames[-1]
            v, i, tried = frame
            if len(towers) == len(frames):
                # The tower leaves the branch but stays banned: every set
                # holding it has just been searched.
                u = towers.pop()
                tried.append(u)
                for w, g in cover[u]:
                    after = raw[w] - g
                    raw[w] = after
                    if after < r:
                        deficit += min(g, r - after)
            candidates = cover[v]
            while i < len(candidates) and banned[candidates[i][0]]:
                i += 1
            if i < len(candidates) and len(towers) + -(-deficit // cap) < limit:
                u = candidates[i][0]
                frame[1] = i + 1
                banned[u] = 1
                towers.append(u)
                for w, g in cover[u]:
                    before = raw[w]
                    raw[w] = before + g
                    if before < r:
                        deficit -= min(g, r - before)
                lo = v
                break
            for u in tried:
                banned[u] = 0
            frames.pop()
        if not frames:
            return best, nodes, False
    return best, nodes, True


def solve(spec: GraphSpec, params: SignalParams, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum tower count with a certifying witness.

    Deterministic: identical inputs explore identical node sequences.
    Any witness returned has passed is_broadcasting.
    Raises InputError when no tower set at all can meet the demand
    (possible only for t < r).
    """
    if node_budget < 1:
        raise InputError(f"node budget must be positive, got {node_budget}")
    t, r = params.t, params.r
    nv = spec.num_vertices

    # cover[u]: (vertex, gain) for every vertex a tower at u would serve,
    # which are also the candidate towers that would raise u's signal.
    cover = [[(u, t - d) for u, d in near(spec, v, t - 1)] for v in range(nv)]
    supply = [sum(min(r, g) for _, g in pairs) for pairs in cover]

    if t < r:
        for v in range(nv):
            if sum(g for _, g in cover[v]) < r:
                raise InputError(
                    f"infeasible: vertex {v} cannot collect {r} even from all towers"
                )

    greedy = _greedy_cover(cover, supply, r)
    found, nodes, exhausted = _search(cover, r, max(supply), len(greedy), node_budget)
    best = greedy if found is None else found

    witness = TowerSet(spec, tuple(sorted(best)))
    if not is_broadcasting(witness, params).ok:
        raise RuntimeError(
            f"solver witness failed its audit on {format_graph_spec(spec)} t={t} r={r}"
        )
    return SolveResult(
        gamma=len(best),
        witness=witness,
        nodes_explored=nodes,
        proof_of_optimality=not exhausted,
    )


def verify_witness(result: SolveResult, spec: GraphSpec, params: SignalParams) -> bool:
    """Re-audit a solver witness from scratch, independent of the search."""
    if result.witness.spec != spec or len(result.witness.vertices) != result.gamma:
        return False
    return is_broadcasting(result.witness, params).ok
