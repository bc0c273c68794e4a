"""Exact minimum tower counts by branch and bound.

Depth-first search over tower sets. Each node branches on the
least-index deficient vertex; the only useful candidates are vertices
within t - 1 of it, taken in index order, which makes runs fully
deterministic.

Pruning uses one weighted bound. Any integer weights W >= 0 on the
vertices give one: a broadcasting set delivers at least r capped signal
to every vertex, and no tower delivers more than D = max over towers u
of sum_v min(r, g_uv) * W_v, so a branch still needs ceil(sum_v W_v *
(capped deficit of v) / D) towers, and at least one while any vertex
is deficient. W = 1 everywhere, with D one tower's largest capped
supply, is the capacity bound r * V / cap. The best W is an optimal
dual of the fractional relaxation (for r = 1, fractional domination),
which can put weight 0 on some vertices.

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

`solve` picks its bound from the spec's box (see `graphs`) alone. Each
bound gives the weights (W, D), a first lower bound lb and a first limit:
  - On an unwrapped box at least three wide each way (a grid) whose
    reflection group has at most ORBIT_CAP orbits, the certified LP-dual
    bound, with limit lb + 1: a ladder that climbs from the bound.
    - The LP has one variable per orbit of the graph's reflections, read
      from the closed-form orbit map `graphs.reflection_orbits`, since
      averaging an optimum over them keeps it optimal: maximise
      r * sum_O |O| * w_O subject to sum_O A[u][O] * w_O <= 1 for the
      least vertex u of each orbit, with A[u][O]
      = sum over v in O of min(r, g_uv). `_simplex` solves it exactly
      by integer pivoting; w is scaled to integers W by the least common
      denominator.
    - `signal.weighted_bound` computes D and ceil(r * sum(W) / D) from
      `graphs.near`, sharing no code with the simplex or the cover table.
      `solve` raises RuntimeError unless that bound equals the ceiling of
      the LP optimum, and the ladder prunes with this certified D.
  - Every other spec: the capacity bound, W = 1 and D the largest
    capped supply, with limit the greedy cover's size: one rung below
    it. Cycles and tori are vertex-transitive, so the uniform weights
    are already an optimal dual. On boxes one or two wide (paths and
    thin grids) and grids above ORBIT_CAP the LP or the ladder was
    measured to cost more than the search it would save (see
    ORBIT_CAP). Only unwrapped boxes at least three wide build the orbit
    map, in O(V), so every other spec pays nothing.
One loop runs the rungs while lb is below the best set, at first the
greedy cover, so a bound that meets the greedy cover proves it with no
search. Each rung searches below its limit with the rest of the
budget. A cut ends the loop and returns the best set so far with lb as
its lower bound. An uncut rung proves that no set is smaller than the
best one or than its limit, so lb becomes the lesser of the two and the
next limit is lb + 1. On the ladder a find is optimal, and a rung
without one proves gamma > lb. After a find the rung goes on below lb
until it is exhausted or cut; on a first rung that costs no node, since
every frame's bound is at least the root bound, and on later rungs it
cost 0.2 to 9 % more nodes than stopping at the find (grid 12x12 at
(3, 2): 617,494 against 567,706), which no benchmark workload reaches.

`_search` knows nothing of the graph, the greedy or the audit: it
reads the cover table, r, the bound (W, D), the limit and the node
budget. It is one loop over an explicit stack: `towers` holds the
towers on the current branch and `frames` the branch vertex, next
candidate index and banned towers at each depth, so depth is not
limited by recursion. Placing or removing a tower walks its `cover`
list, updating the raw signals and the weighted capped deficit in
place. A sentinel raw[V] = 0, never >= r, ends the scan for the first
deficient vertex; reaching it is the cover test.

Set-up builds one table, `cover`, from one radius t - 1 kernel call
(`graphs.near`) per vertex, so it costs V x |ball| entries rather than
V^2 distance calls. Distance is symmetric, so a vertex's list names
both the vertices its tower serves and its own candidate towers. A spec
whose table could exceed errors.MAX_ENTRIES entries is refused before
anything is allocated.

Before it returns, `solve` re-audits its witness with `is_broadcasting`,
which knows nothing of the search, and raises RuntimeError if the audit
fails. The audit stamps towers x |ball| entries and has no early exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil, lcm

from .errors import InputError, check_entries
from .graphs import GraphSpec, format_graph_spec, near, reflection_orbits
from .signal import SignalParams, TowerSet, is_broadcasting, weighted_bound

DEFAULT_NODE_BUDGET = 2_000_000
# Most reflection orbits (LP variables) for which a grid solves the LP;
# grid 12x12 has 21. On every grid R x C with R, C >= 3 and at most 21
# orbits, 2 <= t <= 5, 1 <= r <= t and a budget of 200,000 nodes, 1,564
# of the 1,680 cases prove (CPython 3.11, 2-vCPU VM); nothing above 21
# orbits was compared. Paths and grids one or two rows wide never run
# it: on grid 2x33 at (2, 1) the ladder needs more than 200,000 nodes
# where the search below the greedy cover proves 17 in 59,921, and on
# paths with n = 25 to 72, 196 of the 238 searches that needed more
# than 512 nodes ran slower with the LP (1.97 s in all, 3.18 s with it).
ORBIT_CAP = 21


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome.

    lower_bound is the proved bound: gamma when the bound the spec
    starts from meets the best set or an uncut rung proved it, and
    otherwise that starting bound (the capacity bound, or on a grid
    that runs the LP the certified LP-dual bound) as raised by finished
    ladder rungs; proof_of_optimality says whether it meets gamma. A
    starting bound that meets the greedy cover proves it in 0 nodes.
    A proved witness is the greedy cover unless the search found
    a smaller set, and then the smallest it found (on a grid that runs
    the LP, the first set the ladder found). On budget exhaustion
    gamma/witness hold the best set found so far, at worst the greedy
    cover; they are upper bounds, never wrong answers presented as
    optimal. nodes_explored never exceeds the budget.
    """

    gamma: int
    witness: TowerSet
    nodes_explored: int
    lower_bound: int

    @property
    def proof_of_optimality(self) -> bool:
        return self.lower_bound == self.gamma


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


def _search(cover: list[list[tuple[int, int]]], r: int, weights: list[int], scale: int,
            limit: int, node_budget: int) -> tuple[list[int] | None, int, bool]:
    """Smallest tower set below `limit` towers that the search finds.

    Returns (towers or None, nodes explored, whether the budget cut the
    search). A run that is not cut has proved that no set is smaller
    than the one it returns, or than `limit` when it returns None.
    `weights` and `scale` are a bound (W, D): no tower delivers more
    than D of sum W_v * (capped signal at v).
    """
    nv = len(cover)
    best = None
    # raw[nv] is a sentinel that stays 0 < r: the scan for a deficient
    # vertex stops there exactly when every vertex is covered.
    raw = [0] * (nv + 1)
    # banned[u]: u is on the branch or an earlier sibling of a frame on it.
    banned = bytearray(nv)
    # The remaining weighted capped demand, for the bound.
    wdef = sum(weights) * r
    towers: list[int] = []
    # frames[d]: [branch vertex, next index into its cover list, the
    # towers this frame banned] at depth d.
    frames: list[list] = []
    nodes = 0
    lo = 0
    while nodes < node_budget:
        nodes += 1
        # Any completion must add a tower within reach of the first
        # deficient vertex; signal only grows along a branch, so the
        # scan never needs to back up past lo.
        v = lo
        while raw[v] >= r:
            v += 1
        if v == nv:
            best = towers.copy()
            limit = len(towers)
        else:
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
                # Conditionals, not min(), in the two hottest loops: the
                # call's overhead shows on the sweep box.
                for w, g in cover[u]:
                    after = raw[w] - g
                    raw[w] = after
                    if after < r:
                        wdef += weights[w] * (g if g < r - after else r - after)
            candidates = cover[v]
            while i < len(candidates) and banned[candidates[i][0]]:
                i += 1
            # The frame's vertex is deficient, so at least one more tower
            # is needed even where the weights are zero.
            if i < len(candidates) and len(towers) + (-(-wdef // scale) or 1) < limit:
                u = candidates[i][0]
                frame[1] = i + 1
                banned[u] = 1
                towers.append(u)
                for w, g in cover[u]:
                    before = raw[w]
                    raw[w] = before + g
                    if before < r:
                        wdef -= weights[w] * (g if g < r - before else r - before)
                lo = v
                break
            for u in tried:
                banned[u] = 0
            frames.pop()
        if not frames:
            return best, nodes, False
    return best, nodes, True


def _simplex(rows: list[list[int]], gains: list[int]) -> tuple[Fraction, list[Fraction]]:
    """Maximum of gains . x subject to rows . x <= 1 and x >= 0, and a
    point that attains it.

    A dense tableau with integer pivoting: every entry is an integer
    numerator over one common denominator d, the last pivot, and each
    pivot divides exactly by the d before it, so no entry is ever
    normalised (about ten times faster than a Fraction tableau at 18 to
    36 orbits). Every right-hand side is 1, so the origin is a feasible
    start and no phase 1 is needed; Bland's rule (the least improving
    column, ratio ties to the least basic variable) rules out cycling.
    The rows are nonnegative and every column has a positive entry, so
    the program is bounded.
    """
    m, n = len(rows), len(gains)
    # Row i: coefficients of x, then of the slacks, then the right-hand side.
    tab = [row + [1 if j == i else 0 for j in range(m)] + [1] for i, row in enumerate(rows)]
    cost = [-c for c in gains] + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1
    while True:
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            break
        p = min((i for i in range(m) if tab[i][col] > 0),
                key=lambda i: (Fraction(tab[i][-1], tab[i][col]), basis[i]))
        row = tab[p]
        pivot = row[col]
        for i, other in enumerate(tab):
            if i != p:
                f = other[col]
                tab[i] = [(a * pivot - f * b) // d for a, b in zip(other, row)]
        f = cost[col]
        cost = [(a * pivot - f * b) // d for a, b in zip(cost, row)]
        d = pivot
        basis[p] = col
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[i][-1], d)
    return Fraction(cost[-1], d), x


def _dual_weights(orbit: list[int], cover: list[list[tuple[int, int]]],
                  r: int) -> tuple[Fraction, list[int]]:
    """The optimum of the fractional relaxation's dual, and integer
    weights W that attain it.

    The dual maximises r * sum(y) subject to sum_v min(r, g_uv) * y_v
    <= 1 at every tower u. Averaging an optimum over the graph's
    reflections keeps it optimal, so one variable per orbit O of the
    orbit map `orbit` (`graphs.reflection_orbits`) and one row per
    orbit's least vertex suffice. W is y scaled by the least common
    denominator.
    """
    reps = [orbit.index(o) for o in range(max(orbit) + 1)]
    rows = []
    for u in reps:
        row = [0] * len(reps)
        for v, g in cover[u]:
            row[orbit[v]] += min(r, g)
        rows.append(row)
    value, y = _simplex(rows, [r * orbit.count(o) for o in range(len(reps))])
    denominator = lcm(*(a.denominator for a in y))
    return value, [int(y[o] * denominator) for o in orbit]


def solve(spec: GraphSpec, params: SignalParams, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum tower count with a certifying witness.

    Deterministic: identical inputs explore identical node sequences.
    Any witness returned has passed is_broadcasting.
    Raises InputError when no tower set at all can meet the demand
    (possible only for t < r), or when the cover table, bounded by V
    times the closed-form ball size, could exceed errors.MAX_ENTRIES.
    """
    if node_budget < 1:
        raise InputError(f"node budget must be positive, got {node_budget}")
    t, r = params.t, params.r
    nv = spec.num_vertices
    rows, cols, k, wrap = spec._box
    ball = 2 * (t - 1) * k + 1 if rows == 1 else 2 * t * t - 2 * t + 1
    entries = nv * min(nv, ball)
    check_entries(entries, lambda: f"{format_graph_spec(spec)} at t={t} needs a cover "
                  f"table of up to {entries} entries")

    # cover[u]: (vertex, gain) for every vertex a tower at u would serve,
    # which are also the candidate towers that would raise u's signal.
    cover = [[(u, t - d) for u, d in near(spec, v, t - 1)] for v in range(nv)]
    # supply[v]: the capped signal v collects from every tower at once.
    supply = [sum(min(r, g) for _, g in pairs) for pairs in cover]
    v = next((v for v, s in enumerate(supply) if s < r), None)
    if v is not None:
        raise InputError(f"infeasible: vertex {v} cannot collect {r} even from all towers")

    best = _greedy_cover(cover, supply, r)
    orbit = None
    if not wrap and min(rows, cols) >= 3:
        orbit = reflection_orbits(spec)
    if orbit is None or max(orbit) + 1 > ORBIT_CAP:
        # The capacity bound, weight 1 on every vertex: one rung below
        # the greedy cover.
        weights, scale = [1] * nv, max(supply)
        lb, limit = -(-r * nv // scale), len(best)
    else:
        # The certified LP-dual bound: a ladder of rungs from lb up.
        value, weights = _dual_weights(orbit, cover, r)
        lb, scale = weighted_bound(spec, params, weights)
        if lb != ceil(value):
            raise RuntimeError(
                f"LP dual bound {ceil(value)} failed its certificate on "
                f"{format_graph_spec(spec)} t={t} r={r}"
            )
        limit = lb + 1
    nodes = 0
    while lb < len(best):
        found, spent, cut = _search(cover, r, weights, scale, limit, node_budget - nodes)
        nodes += spent
        best = best if found is None else found
        if cut:
            break
        # An uncut rung proves that no set is smaller than the best one
        # or than its limit.
        lb = min(limit, len(best))
        limit = lb + 1

    witness = TowerSet(spec, tuple(sorted(best)))
    if not is_broadcasting(witness, params).ok:
        raise RuntimeError(
            f"solver witness failed its audit on {format_graph_spec(spec)} t={t} r={r}"
        )
    return SolveResult(
        gamma=len(best),
        witness=witness,
        nodes_explored=nodes,
        lower_bound=lb,
    )
