"""Exact minimum tower counts by branch and bound.

Depth-first search over tower sets. Each node branches on the
least-index deficient vertex; the only useful candidates are vertices
within t - 1 of it, taken in index order, which makes runs fully
deterministic. Pruning compares the incumbent against the remaining
capped demand divided by one tower's best possible usable supply.

The search is one loop over an explicit stack: `towers` holds the
towers on the current branch and `frames` the branch vertex and next
candidate index at each depth, so depth is not limited by recursion.
Placing or removing a tower walks its `cover` list, updating the raw
signals and the remaining capped demand in place.

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

from .errors import InputError
from .graphs import GraphSpec, format_graph_spec, near
from .signal import SignalParams, TowerSet, is_broadcasting

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome.

    proof_of_optimality is true only when the search space was fully
    exhausted below gamma. On budget exhaustion gamma/witness hold the
    best incumbent found so far, or None when there is none; they are
    upper bounds, never wrong answers presented as optimal.
    """

    gamma: int | None
    witness: TowerSet | None
    nodes_explored: int
    proof_of_optimality: bool


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
    cap = max(sum(min(r, g) for _, g in pairs) for pairs in cover)

    if t < r:
        for v in range(nv):
            if sum(g for _, g in cover[v]) < r:
                raise InputError(
                    f"infeasible: vertex {v} cannot collect {r} even from all towers"
                )

    raw = [0] * nv
    in_set = bytearray(nv)
    deficit = nv * r
    towers: list[int] = []
    # frames[d]: [branch vertex, next index into its cover list] at depth d.
    frames: list[list[int]] = []
    nodes = 0
    exhausted = False
    best: list[int] | None = None
    best_size = nv + 1
    lo = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            break
        if deficit == 0:
            best_size = len(towers)
            best = towers.copy()
        elif len(towers) + -(-deficit // cap) < best_size:
            # Any completion must add a tower within reach of the first
            # deficient vertex; signal only grows along a branch, so the
            # scan never needs to back up past lo.
            v = lo
            while raw[v] >= r:
                v += 1
            frames.append([v, 0])
        # Backtrack to the deepest frame with an untried candidate and
        # place it; the node it opens is the next loop iteration.
        while frames:
            frame = frames[-1]
            if len(towers) == len(frames):
                u = towers.pop()
                in_set[u] = 0
                for w, g in cover[u]:
                    after = raw[w] - g
                    raw[w] = after
                    if after < r:
                        deficit += min(g, r - after)
            v, i = frame
            candidates = cover[v]
            while i < len(candidates) and in_set[candidates[i][0]]:
                i += 1
            if i < len(candidates):
                u = candidates[i][0]
                frame[1] = i + 1
                in_set[u] = 1
                towers.append(u)
                for w, g in cover[u]:
                    before = raw[w]
                    raw[w] = before + g
                    if before < r:
                        deficit -= min(g, r - before)
                lo = v
                break
            frames.pop()
        if not frames:
            break

    witness = None
    if best is not None:
        witness = TowerSet(spec, tuple(sorted(best)))
        if not is_broadcasting(witness, params).ok:
            raise RuntimeError(
                f"solver witness failed its audit on {format_graph_spec(spec)} t={t} r={r}"
            )
    return SolveResult(
        gamma=len(best) if best is not None else None,
        witness=witness,
        nodes_explored=nodes,
        proof_of_optimality=not exhausted,
    )


def verify_witness(result: SolveResult, spec: GraphSpec, params: SignalParams) -> bool:
    """Re-audit a solver witness from scratch, independent of the search."""
    if result.witness is None or result.gamma is None:
        return False
    if result.witness.spec != spec or len(result.witness.vertices) != result.gamma:
        return False
    return is_broadcasting(result.witness, params).ok
