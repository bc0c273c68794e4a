"""Exact branch-and-bound solver: optima, certificates, determinism."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trbroadcast.solver as solver
from trbroadcast import (
    DEFAULT_NODE_BUDGET,
    BroadcastCheck,
    GraphSpec,
    InputError,
    SignalParams,
    SolveResult,
    TowerSet,
    is_broadcasting,
    near,
    parse_graph_spec,
    solve,
    verify_witness,
)
from trbroadcast.graphs import reflection_orbits
from trbroadcast.signal import weighted_bound


def brute_force_gamma(spec, params):
    """Smallest broadcasting set by exhaustive subset enumeration."""
    nv = spec.num_vertices
    for size in range(1, nv + 1):
        for combo in combinations(range(nv), size):
            if is_broadcasting(TowerSet(spec, combo), params).ok:
                return size
    return None


def test_path_example():
    result = solve(GraphSpec.path_power(10, 1), SignalParams(3, 2))
    assert result.gamma == 3
    assert result.witness.vertices == (0, 4, 8)
    assert result.proof_of_optimality
    assert verify_witness(result, GraphSpec.path_power(10, 1), SignalParams(3, 2))


def test_cycle_example():
    result = solve(GraphSpec.cycle_power(12, 1), SignalParams(3, 2))
    assert result.gamma == 3
    assert result.proof_of_optimality
    assert verify_witness(result, GraphSpec.cycle_power(12, 1), SignalParams(3, 2))


def test_single_vertex():
    for k in (1, 4):
        for t, r in [(1, 1), (3, 2), (5, 5)]:
            result = solve(GraphSpec.path_power(1, k), SignalParams(t, r))
            assert result.gamma == 1
            assert result.witness.vertices == (0,)


def test_grid_and_torus_spot_values():
    result = solve(GraphSpec.grid(3, 3), SignalParams(2, 1))
    assert result.gamma == 3
    assert result.witness.vertices == (1, 4, 7)
    # 5x5 torus at (2,1): the classic perfect radius-1 cover
    result = solve(GraphSpec.torus(5, 5), SignalParams(2, 1))
    assert result.gamma == 5
    assert verify_witness(result, GraphSpec.torus(5, 5), SignalParams(2, 1))


def test_matches_brute_force_on_small_instances():
    cases = [
        (GraphSpec.path_power(6, 1), SignalParams(2, 1)),
        (GraphSpec.path_power(7, 2), SignalParams(3, 3)),
        (GraphSpec.cycle_power(8, 1), SignalParams(3, 2)),
        (GraphSpec.cycle_power(9, 2), SignalParams(2, 2)),
        (GraphSpec.grid(2, 5), SignalParams(2, 1)),
        (GraphSpec.torus(3, 4), SignalParams(3, 2)),
    ]
    for spec, params in cases:
        result = solve(spec, params)
        assert result.proof_of_optimality
        assert result.gamma == brute_force_gamma(spec, params)
        assert verify_witness(result, spec, params)


def test_determinism_including_node_counts():
    spec = GraphSpec.path_power(10, 1)
    params = SignalParams(3, 2)
    first = solve(spec, params)
    second = solve(spec, params)
    assert first == second
    assert first.nodes_explored == 10
    # the greedy cover meets the capacity bound: the root node proves it
    assert solve(GraphSpec.cycle_power(12, 1), params).nodes_explored == 1


def test_gamma_monotone_in_strength_and_size():
    # stronger towers never need more of them
    gammas = [solve(GraphSpec.path_power(12, 2), SignalParams(t, 2)).gamma
              for t in range(2, 6)]
    assert gammas == sorted(gammas, reverse=True)
    # longer paths never need fewer
    gammas = [solve(GraphSpec.path_power(n, 1), SignalParams(3, 2)).gamma
              for n in range(4, 15)]
    assert gammas == sorted(gammas)


def test_engine_handles_demand_above_strength():
    # t < r is satisfiable here: all three towers together reach 3
    result = solve(GraphSpec.path_power(3, 1), SignalParams(2, 3))
    assert result.gamma == 3
    assert result.witness.vertices == (0, 1, 2)


def test_infeasible_demand_is_an_input_error():
    with pytest.raises(InputError):
        solve(GraphSpec.path_power(3, 1), SignalParams(1, 2))


def test_budget_exhaustion_is_explicit():
    # a cut before any smaller set keeps the greedy cover as the incumbent
    spec, params = GraphSpec.path_power(10, 2), SignalParams(3, 2)
    result = solve(spec, params, node_budget=3)
    assert not result.proof_of_optimality
    assert result.gamma == 3
    assert result.witness.vertices == (0, 4, 9)
    assert result.nodes_explored == 3
    # the capacity bound: demand 2 * 10 over 14 capped supply per tower
    assert result.lower_bound == 2
    assert verify_witness(result, spec, params)
    # a cut after the search beat the greedy cover (4 towers) keeps the
    # smaller set, still as an unproved upper bound; the optimum is 2
    spec, params = GraphSpec.path_power(12, 2), SignalParams(4, 3)
    result = solve(spec, params, node_budget=11)
    assert not result.proof_of_optimality
    assert result.gamma == 3
    assert result.witness.vertices == (0, 1, 9)
    assert result.nodes_explored == 11
    assert result.lower_bound == 2
    assert verify_witness(result, spec, params)
    with pytest.raises(InputError):
        solve(GraphSpec.path_power(5, 1), SignalParams(2, 1), node_budget=0)


# (rows, cols, t, r) -> (gamma, witness, nodes_explored) of the
# grid-search benchmark jobs. A prune may save nodes but must not move
# these witnesses; the node counts move only with the search itself.
PINNED_GRID_OPTIMA = {
    (6, 6, 3, 2): (6, (0, 4, 14, 23, 24, 33), 560),
    (5, 8, 3, 2): (7, (0, 6, 11, 16, 29, 31, 34), 1597),
    (6, 7, 3, 2): (7, (1, 5, 17, 21, 27, 29, 39), 1043),
    (6, 6, 4, 3): (4, (2, 17, 18, 33), 660),
    (7, 7, 2, 1): (12, (1, 5, 10, 14, 20, 23, 25, 28, 34, 38, 43, 47), 891),
}


@pytest.mark.parametrize("case", sorted(PINNED_GRID_OPTIMA))
def test_grid_optima_and_witnesses_are_pinned(case):
    rows, cols, t, r = case
    result = solve(GraphSpec.grid(rows, cols), SignalParams(t, r))
    assert result.proof_of_optimality
    assert result.lower_bound == result.gamma
    assert (result.gamma, result.witness.vertices, result.nodes_explored) == PINNED_GRID_OPTIMA[case]


def test_grid_8x8_proves_within_the_default_budget():
    spec, params = GraphSpec.grid(8, 8), SignalParams(3, 2)
    result = solve(spec, params)
    assert result.proof_of_optimality
    assert result.gamma == 10
    assert verify_witness(result, spec, params)


@st.composite
def budget_cut(draw):
    fam = draw(st.sampled_from(["path", "cycle", "grid", "torus"]))
    if fam in ("path", "cycle"):
        n = draw(st.integers(1, 30))
        k = draw(st.integers(1, 3))
        spec = GraphSpec.path_power(n, k) if fam == "path" else GraphSpec.cycle_power(n, k)
    else:
        rows = draw(st.integers(1, 6))
        cols = draw(st.integers(1, 6))
        spec = GraphSpec.grid(rows, cols) if fam == "grid" else GraphSpec.torus(rows, cols)
    params = SignalParams(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return spec, params, draw(st.integers(1, 60))


@st.composite
def two_budget_cuts(draw):
    spec, params, budget = draw(budget_cut())
    return spec, params, budget, budget + draw(st.integers(1, 60))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(budget_cut())
def test_budget_cut_witness_always_audits(case):
    spec, params, budget = case
    try:
        full = solve(spec, params)
    except InputError:
        assume(False)
    result = solve(spec, params, node_budget=budget)
    assert result.proof_of_optimality or result.nodes_explored == budget
    assert verify_witness(result, spec, params)
    assert result.lower_bound <= full.gamma <= result.gamma
    assert result.proof_of_optimality == (result.lower_bound == result.gamma)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(two_budget_cuts())
@example((GraphSpec.path_power(10, 2), SignalParams(3, 2), 9, 10))
@example((GraphSpec.grid(8, 8), SignalParams(3, 2), 400, 600))
@example((GraphSpec.grid(8, 8), SignalParams(3, 2), 600, 900))
def test_larger_budget_never_returns_a_worse_or_tied_other_set(case):
    # each set the search records is smaller than the one before, and a
    # ladder rung records only sets below the best, so a larger budget
    # keeps the same set or a smaller one, also across the allowance
    spec, params, budget, larger = case
    try:
        result = solve(spec, params, node_budget=budget)
    except InputError:
        assume(False)
    more = solve(spec, params, node_budget=larger)
    assert more.gamma <= result.gamma
    assert more.lower_bound >= result.lower_bound
    if more.gamma == result.gamma:
        assert more.witness == result.witness


def test_verify_witness_rejects_tampering():
    spec = GraphSpec.path_power(10, 1)
    params = SignalParams(3, 2)
    result = solve(spec, params)

    dropped = SolveResult(
        gamma=result.gamma - 1,
        witness=TowerSet(spec, result.witness.vertices[:-1]),
        nodes_explored=0,
        lower_bound=0,
    )
    assert not verify_witness(dropped, spec, params)

    length_lie = SolveResult(
        gamma=result.gamma,
        witness=TowerSet(spec, result.witness.vertices[:-1]),
        nodes_explored=0,
        lower_bound=0,
    )
    assert not verify_witness(length_lie, spec, params)

    wrong_graph = SolveResult(
        gamma=result.gamma,
        witness=result.witness,
        nodes_explored=0,
        lower_bound=0,
    )
    assert not verify_witness(wrong_graph, GraphSpec.path_power(11, 1), params)

    empty = SolveResult(
        gamma=0,
        witness=TowerSet(spec, ()),
        nodes_explored=0,
        lower_bound=0,
    )
    assert not verify_witness(empty, spec, params)


def test_solve_raises_when_its_witness_fails_the_audit(monkeypatch):
    monkeypatch.setattr(solver, "is_broadcasting",
                        lambda towers, params: BroadcastCheck(False, 0, 0))
    with pytest.raises(RuntimeError, match="path:n=10,k=1 t=3 r=2"):
        solve(GraphSpec.path_power(10, 1), SignalParams(3, 2))


def cover_table(spec, t):
    return [[(u, t - d) for u, d in near(spec, v, t - 1)] for v in range(spec.num_vertices)]


@pytest.mark.parametrize("text, t, r, value", [
    ("path:n=40,k=3", 6, 6, Fraction(180, 53)),
    ("grid:7x7", 2, 1, Fraction(23, 2)),
    ("grid:6x6", 3, 2, Fraction(40, 7)),
])
def test_exact_lp_dual_values(text, t, r, value):
    spec, params = parse_graph_spec(text), SignalParams(t, r)
    cover = cover_table(spec, t)
    got, weights = solver._dual_weights(reflection_orbits(spec), cover, r)
    assert got == value
    # W / D is feasible and attains the optimum, and the certificate
    # agrees, with the scale the cover table gives
    bound, scale = weighted_bound(spec, params, weights)
    assert Fraction(r * sum(weights), scale) == value
    assert bound == -(-value.numerator // value.denominator)
    assert scale == max(sum(min(r, g) * weights[v] for v, g in pairs) for pairs in cover)


def test_zero_weights_still_charge_a_deficient_vertex_one_tower():
    # the dual of grid 4x4 at (3, 5) weighs only the corners: a branch
    # one tower below the limit can have no weighted deficit left, yet
    # it still needs a tower, so no set of the limit's size is recorded
    spec, t, r = GraphSpec.grid(4, 4), 3, 5
    cover = cover_table(spec, t)
    _, weights = solver._dual_weights(reflection_orbits(spec), cover, r)
    assert weights == [1, 0, 0, 1] + [0] * 8 + [1, 0, 0, 1]
    _, scale = weighted_bound(spec, SignalParams(t, r), weights)
    assert solver._search(cover, r, weights, scale, 8, DEFAULT_NODE_BUDGET) == (None, 147, False)
    result = solve(spec, SignalParams(t, r))
    assert (result.gamma, result.lower_bound, result.proof_of_optimality) == (8, 8, True)


def test_uniform_dual_is_the_capacity_bound():
    # path:n=40,k=3 at (6, 6): demand 6 * 40 over 96 capped supply is 5/2,
    # below the LP's 180/53, and weight 1 everywhere certifies ceil(5/2)
    spec, params = GraphSpec.path_power(40, 3), SignalParams(6, 6)
    assert weighted_bound(spec, params, [1] * 40) == (3, 96)


@pytest.mark.parametrize("spec", [
    GraphSpec.grid(1, 1), GraphSpec.grid(1, 6), GraphSpec.grid(2, 7), GraphSpec.grid(3, 5),
    GraphSpec.grid(4, 6), GraphSpec.grid(5, 5), GraphSpec.grid(6, 6),
])
def test_orbit_count_closed_form(spec):
    # the row and column flips fold each axis onto its first half; on a
    # square the transpose also identifies (y, x) with (x, y)
    half_rows, half_cols = -(-spec.rows // 2), -(-spec.cols // 2)
    count = half_rows * (half_rows + 1) // 2 if spec.rows == spec.cols else half_rows * half_cols
    assert max(reflection_orbits(spec)) + 1 == count


def test_tampered_dual_weights_fail_the_certificate(monkeypatch):
    simplex = solver._simplex

    def uniform_weights(rows, gains):
        value, x = simplex(rows, gains)
        return value, [Fraction(1)] * len(x)

    monkeypatch.setattr(solver, "_simplex", uniform_weights)
    with pytest.raises(RuntimeError, match="certificate on grid:6x6 t=3 r=2"):
        solve(GraphSpec.grid(6, 6), SignalParams(3, 2))


def record_calls(monkeypatch, name):
    """Wrap solver.<name> so that each call's last argument is recorded."""
    calls = []
    real = getattr(solver, name)

    def wrapper(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(solver, name, wrapper)
    return calls


@pytest.mark.parametrize("spec, params", [
    (GraphSpec.torus(6, 6), SignalParams(3, 2)),
    (GraphSpec.cycle_power(24, 1), SignalParams(5, 5)),
    (GraphSpec.path_power(41, 3), SignalParams(5, 5)),
    (GraphSpec.grid(2, 17), SignalParams(2, 1)),
])
def test_only_grids_three_wide_run_the_lp(monkeypatch, spec, params):
    # Tori and cycles are vertex-transitive: the uniform weights are
    # already an optimal dual. On paths and two-row grids the LP and the
    # ladder cost more than they save. The torus, path and grid searches
    # run 781, 2,237 and 1,011 nodes, past the allowance a wider grid
    # gets, yet the one search keeps the whole budget.
    lp_runs = record_calls(monkeypatch, "_simplex")
    budgets = record_calls(monkeypatch, "_search")
    result = solve(spec, params)
    assert result.proof_of_optimality
    assert result.lower_bound == result.gamma
    assert budgets == [DEFAULT_NODE_BUDGET]
    assert lp_runs == []


@pytest.mark.parametrize("spec, orbits, budgets, lp_count", [
    (GraphSpec.grid(6, 13), 21, [512, 4488, 3916], 1),
    (GraphSpec.grid(3, 21), 22, [5000], 0),
])
def test_orbit_cap_is_inclusive(monkeypatch, spec, orbits, budgets, lp_count):
    # one orbit under the cap the allowance cuts the search and the LP
    # runs; one over it the search keeps the whole budget
    assert max(reflection_orbits(spec)) + 1 == orbits
    lp_runs = record_calls(monkeypatch, "_simplex")
    searched = record_calls(monkeypatch, "_search")
    solve(spec, SignalParams(2, 1), node_budget=5000)
    assert searched == budgets
    assert len(lp_runs) == lp_count


def test_cut_past_the_allowance_reports_the_dual_bound():
    # capacity bound ceil(2 * 64 / 18) = 8; the LP dual certifies 10 = gamma
    spec, params = GraphSpec.grid(8, 8), SignalParams(3, 2)
    result = solve(spec, params, node_budget=520)
    assert not result.proof_of_optimality
    assert result.nodes_explored == 520
    assert result.lower_bound == 10 < result.gamma
    assert verify_witness(result, spec, params)


# Nodes each run explores: pinned, since a change to the orbit map or
# the LP that moves the LP's optimal point moves the ladder.
LADDER_NODES = {(10, 3, 2): 13_305, (11, 3, 2): 8_808, (10, 2, 1): 52_305}


@pytest.mark.parametrize("rows, t, r, gamma", [(10, 3, 2, 15), (11, 3, 2, 17), (10, 2, 1, 24)])
def test_ladder_proves_grids_the_capacity_bound_could_not(rows, t, r, gamma):
    spec, params = GraphSpec.grid(rows, rows), SignalParams(t, r)
    result = solve(spec, params)
    assert result.proof_of_optimality
    assert result.gamma == result.lower_bound == gamma
    assert result.nodes_explored == LADDER_NODES[rows, t, r]
    assert verify_witness(result, spec, params)
