"""Exact minimum tower counts by branch and bound.

Depth-first search over tower sets. Each node branches on the
least-index deficient vertex; the only useful candidates are vertices
within t - 1 of it, taken in index order, which makes runs fully
deterministic. Pruning compares the incumbent against the remaining
capped demand divided by one tower's best possible usable supply.

Set-up builds the cover and serve tables from one radius t - 1 kernel
call (`graphs.near`) per vertex, so it costs V x |ball| entries rather
than V^2 distance calls. The final witness audit (`is_broadcasting`)
stamps towers x |ball| entries and has no early exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Family, GraphSpec, near
from .signal import SignalParams, TowerSet, is_broadcasting, usable_cap_1d, usable_cap_2d

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


def _tower_cap(spec: GraphSpec, params: SignalParams, supplies: list[int]) -> int:
    # Best capped supply any single tower could deliver: the family-level
    # cap clipped by the best actually attainable on this finite graph.
    cap = max(supplies)
    if params.t >= params.r:
        if spec.family in (Family.PATH, Family.CYCLE):
            cap = min(cap, usable_cap_1d(params, spec.k))
        else:
            cap = min(cap, usable_cap_2d(params))
    return cap


def solve(spec: GraphSpec, params: SignalParams, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum tower count with a certifying witness.

    Deterministic: identical inputs explore identical node sequences.
    Raises InputError when no tower set at all can meet the demand
    (possible only for t < r).
    """
    if node_budget < 1:
        raise InputError(f"node budget must be positive, got {node_budget}")
    t, r = params.t, params.r
    nv = spec.num_vertices
    reach = t - 1

    # cover[u]: (vertex, gain) for every vertex u's tower would serve.
    # serve[v]: candidate towers that would raise v's signal.
    cover: list[list[tuple[int, int]]] = []
    serve: list[list[int]] = []
    for v in range(nv):
        pairs = near(spec, v, reach)
        serve.append([u for u, _ in pairs])
        cover.append([(u, t - d) for u, d in pairs])
    supplies = [sum(min(r, g) for _, g in cover[u]) for u in range(nv)]
    cap = _tower_cap(spec, params, supplies)

    if t < r:
        for v in range(nv):
            if sum(g for _, g in cover[v]) < r:
                raise InputError(
                    f"infeasible: vertex {v} cannot collect {r} even from all towers"
                )

    raw = [0] * nv
    in_set = bytearray(nv)
    stack: list[int] = []
    state = {
        "deficit": nv * r,
        "nodes": 0,
        "exhausted": False,
        "best_size": nv + 1,
        "best": None,
    }

    def place(u: int, sign: int) -> None:
        deficit = state["deficit"]
        for v, g in cover[u]:
            before = raw[v]
            after = before + sign * g
            raw[v] = after
            if sign > 0:
                deficit -= min(g, max(0, r - before))
            else:
                deficit += min(g, max(0, r - after))
        state["deficit"] = deficit

    def dfs(lo: int) -> None:
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            state["exhausted"] = True
            return
        deficit = state["deficit"]
        if deficit == 0:
            state["best_size"] = len(stack)
            state["best"] = stack.copy()
            return
        bound = len(stack) + -(-deficit // cap)
        if bound >= state["best_size"]:
            return
        v = lo
        while raw[v] >= r:
            v += 1
        # Any completion must add a tower within reach of v; signal only
        # grows along a branch, so the scan never needs to back up.
        for u in serve[v]:
            if in_set[u]:
                continue
            in_set[u] = 1
            stack.append(u)
            place(u, 1)
            dfs(v)
            place(u, -1)
            stack.pop()
            in_set[u] = 0
            if state["exhausted"]:
                return

    dfs(0)

    best = state["best"]
    witness = TowerSet(spec, tuple(sorted(best))) if best is not None else None
    return SolveResult(
        gamma=len(best) if best is not None else None,
        witness=witness,
        nodes_explored=state["nodes"],
        proof_of_optimality=not state["exhausted"],
    )


def verify_witness(result: SolveResult, spec: GraphSpec, params: SignalParams) -> bool:
    """Re-audit a solver witness from scratch, independent of the search."""
    if result.witness is None or result.gamma is None:
        return False
    if result.witness.spec != spec or len(result.witness.vertices) != result.gamma:
        return False
    return is_broadcasting(result.witness, params).ok
