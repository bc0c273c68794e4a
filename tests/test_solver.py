"""Exact branch-and-bound solver: optima, certificates, determinism."""

from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trbroadcast import (
    BroadcastCheck,
    GraphSpec,
    InputError,
    SignalParams,
    SolveResult,
    TowerSet,
    is_broadcasting,
    solve,
    verify_witness,
)


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
    assert verify_witness(result, spec, params)
    # a cut after the search beat the greedy cover (4 towers) keeps the
    # smaller set, still as an unproved upper bound; the optimum is 2
    spec, params = GraphSpec.path_power(12, 2), SignalParams(4, 3)
    result = solve(spec, params, node_budget=11)
    assert not result.proof_of_optimality
    assert result.gamma == 3
    assert result.witness.vertices == (0, 1, 9)
    assert result.nodes_explored == 11
    assert verify_witness(result, spec, params)
    with pytest.raises(InputError):
        solve(GraphSpec.path_power(5, 1), SignalParams(2, 1), node_budget=0)


# (rows, cols, t, r) -> (gamma, witness, nodes_explored) of the
# grid-search benchmark jobs. A prune may save nodes but must not move
# these witnesses; the node counts move only with the search itself.
PINNED_GRID_OPTIMA = {
    (6, 6, 3, 2): (6, (0, 4, 14, 23, 24, 33), 1060),
    (5, 8, 3, 2): (7, (0, 6, 11, 16, 29, 31, 34), 28892),
    (6, 7, 3, 2): (7, (1, 5, 17, 21, 27, 29, 39), 11837),
    (6, 6, 4, 3): (4, (2, 17, 18, 33), 1964),
    (7, 7, 2, 1): (12, (1, 5, 10, 14, 20, 23, 25, 28, 34, 38, 43, 47), 30660),
}


@pytest.mark.parametrize("case", sorted(PINNED_GRID_OPTIMA))
def test_grid_optima_and_witnesses_are_pinned(case):
    rows, cols, t, r = case
    result = solve(GraphSpec.grid(rows, cols), SignalParams(t, r))
    assert result.proof_of_optimality
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
    assert result.gamma >= full.gamma


@settings(derandomize=True, max_examples=150, deadline=None)
@given(two_budget_cuts())
@example((GraphSpec.path_power(10, 2), SignalParams(3, 2), 9, 10))
def test_larger_budget_never_returns_a_worse_or_tied_other_set(case):
    # each set the search records is smaller than the one before, so a
    # larger budget keeps the same set or a smaller one
    spec, params, budget, larger = case
    try:
        result = solve(spec, params, node_budget=budget)
    except InputError:
        assume(False)
    more = solve(spec, params, node_budget=larger)
    assert more.gamma <= result.gamma
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
        proof_of_optimality=True,
    )
    assert not verify_witness(dropped, spec, params)

    length_lie = SolveResult(
        gamma=result.gamma,
        witness=TowerSet(spec, result.witness.vertices[:-1]),
        nodes_explored=0,
        proof_of_optimality=True,
    )
    assert not verify_witness(length_lie, spec, params)

    wrong_graph = SolveResult(
        gamma=result.gamma,
        witness=result.witness,
        nodes_explored=0,
        proof_of_optimality=True,
    )
    assert not verify_witness(wrong_graph, GraphSpec.path_power(11, 1), params)

    empty = SolveResult(
        gamma=0,
        witness=TowerSet(spec, ()),
        nodes_explored=0,
        proof_of_optimality=True,
    )
    assert not verify_witness(empty, spec, params)


def test_solve_raises_when_its_witness_fails_the_audit(monkeypatch):
    import trbroadcast.solver as solver

    monkeypatch.setattr(solver, "is_broadcasting",
                        lambda towers, params: BroadcastCheck(False, 0, 0))
    with pytest.raises(RuntimeError, match="path:n=10,k=1 t=3 r=2"):
        solve(GraphSpec.path_power(10, 1), SignalParams(3, 2))
