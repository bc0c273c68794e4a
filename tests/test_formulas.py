"""Closed-form counts and the certified constructions built from them."""

from itertools import combinations

import pytest

from trbroadcast import (
    BroadcastCheck,
    GraphSpec,
    InputError,
    SignalParams,
    TowerSet,
    construct_cycle_towers,
    construct_path_towers,
    gamma_cycle_power,
    gamma_path_power,
    is_broadcasting,
)
from trbroadcast import errors, formulas
from trbroadcast.formulas import _period


def test_path_formula_examples():
    assert gamma_path_power(10, 1, 3, 2) == 3
    assert gamma_path_power(1, 1, 1, 1) == 1
    # t = r = 1 towers cover only themselves
    for n in (1, 4, 9):
        for k in (1, 3):
            assert gamma_path_power(n, k, 1, 1) == n


def test_path_formula_k1_reduction():
    # k = 1 collapses to ceil((n + r - 1) / (2t - r))
    for n in range(1, 20):
        for t in range(1, 5):
            for r in range(1, t + 1):
                reduced = -(-(n + r - 1) // (2 * t - r))
                assert gamma_path_power(n, 1, t, r) == reduced


def test_lower_bound_is_tight():
    # demand nr plus the kr(r-1) end slack, over one tower's usable cap,
    # r per vertex of its period
    for n in range(1, 19):
        for k in range(1, 4):
            for t in range(1, 5):
                for r in range(1, t + 1):
                    cap = _period(k, t, r) * r
                    bound = -(-(n * r + k * r * (r - 1)) // cap)
                    assert bound == gamma_path_power(n, k, t, r)


def test_cycle_formula_cases():
    assert gamma_cycle_power(7, 2, 3, 1) == 1
    assert gamma_cycle_power(6, 1, 4, 2) == 2
    assert gamma_cycle_power(13, 1, 4, 2) == 3


def test_cycle_formula_case_boundaries():
    for k in range(1, 4):
        for t in range(1, 5):
            for r in range(1, t + 1):
                lone = 2 * (t - r) * k + 1
                period = (2 * t - r - 1) * k + 1
                assert gamma_cycle_power(lone, k, t, r) == 1
                if lone + 1 <= period:
                    assert gamma_cycle_power(lone + 1, k, t, r) == 2
                if period > lone:
                    assert gamma_cycle_power(period, k, t, r) == 2
                assert gamma_cycle_power(period + 1, k, t, r) == 2


def test_cycle_formula_monotone_in_n():
    for k in range(1, 4):
        for t in range(1, 5):
            for r in range(1, t + 1):
                values = [gamma_cycle_power(n, k, t, r) for n in range(1, 40)]
                assert values == sorted(values)


@pytest.mark.parametrize("fn", [gamma_path_power, gamma_cycle_power])
def test_formula_input_validation(fn):
    with pytest.raises(InputError):
        fn(0, 1, 3, 2)
    with pytest.raises(InputError):
        fn(5, 0, 3, 2)
    with pytest.raises(InputError):
        fn(5, 1, 3, 0)
    with pytest.raises(InputError):
        fn(5, 1, 2, 3)


def test_construct_path_examples():
    assert construct_path_towers(10, 1, 3, 2).vertices == (1, 5, 9)
    assert construct_path_towers(1, 2, 4, 1).vertices == (0,)


def test_path_tail_window_stops_one_short_of_its_stated_edge():
    # The stated tail window lead <= (n-1) mod period <= 2*lead + 1
    # admits its upper edge, where the residue towers alone leave the
    # end short; the builder appends n - 1 there and stays at the
    # closed-form size.
    assert construct_path_towers(12, 1, 3, 2).vertices == (1, 5, 9, 11)
    edges = 0
    for n in range(1, 41):
        for k in range(1, 4):
            for t in range(1, 7):
                for r in range(1, t + 1):
                    period = (2 * t - r - 1) * k + 1
                    lead = (t - r) * k
                    if (n - 1) % period != 2 * lead + 1:
                        continue
                    edges += 1
                    residue = tuple(range(lead, n, period))
                    spec = GraphSpec.path_power(n, k)
                    params = SignalParams(t, r)
                    assert not is_broadcasting(TowerSet(spec, residue), params).ok
                    built = construct_path_towers(n, k, t, r)
                    assert built.vertices == (*residue, n - 1)
                    assert len(built.vertices) == gamma_path_power(n, k, t, r)
    assert edges > 0


def test_construct_cycle_examples():
    assert construct_cycle_towers(13, 1, 4, 2).vertices == (0, 6, 12)
    assert construct_cycle_towers(5, 2, 3, 1).vertices == (0,)
    assert construct_cycle_towers(6, 1, 4, 2).vertices == (0, 3)


def test_constructions_are_certified_over_a_grid_of_inputs():
    for n in range(1, 15):
        for k in range(1, 3):
            for t in range(1, 5):
                for r in range(1, t + 1):
                    params = SignalParams(t, r)
                    path = construct_path_towers(n, k, t, r)
                    assert len(path.vertices) == gamma_path_power(n, k, t, r)
                    assert is_broadcasting(path, params).ok
                    cycle = construct_cycle_towers(n, k, t, r)
                    assert len(cycle.vertices) == gamma_cycle_power(n, k, t, r)
                    assert is_broadcasting(cycle, params).ok


def test_audit_and_builders_refuse_one_vertex_over_the_limit(monkeypatch):
    # Accepted at the limit, refused one vertex above it: the builders
    # before they list a tower, the audit before it allocates a signal.
    monkeypatch.setattr(errors, "MAX_ENTRIES", 12)
    params = SignalParams(2, 1)
    for build in (construct_path_towers, construct_cycle_towers):
        assert is_broadcasting(build(12, 1, 2, 1), params).ok
        with pytest.raises(InputError, match=r"^construction on n = 13 vertices, "
                                             r"over the limit of 12$"):
            build(13, 1, 2, 1)
    assert gamma_path_power(13, 1, 2, 1) == 5
    assert not is_broadcasting(TowerSet(GraphSpec.path_power(12, 1), (0,)), params).ok
    with pytest.raises(InputError, match=r"^path:n=13,k=1 has 13 vertices, over the limit of 12$"):
        is_broadcasting(TowerSet(GraphSpec.path_power(13, 1), (0,)), params)


def test_constructions_raise_when_they_fail_the_audit(monkeypatch):
    monkeypatch.setattr(formulas, "is_broadcasting",
                        lambda towers, params: BroadcastCheck(False, 0, 0))
    with pytest.raises(RuntimeError, match="^path construction failed its audit "
                                           "for n=10 k=1 t=3 r=2$"):
        construct_path_towers(10, 1, 3, 2)
    with pytest.raises(RuntimeError, match="^cycle construction failed its audit "
                                           "for n=12 k=2 t=3 r=1$"):
        construct_cycle_towers(12, 2, 3, 1)


def test_path_formula_overcounts_when_strength_equals_demand():
    """Frozen finding: the closed form is not optimal at t = r with k >= 2.

    On these instances two cooperating towers satisfy every vertex while
    the formula asks for three. Exhaustive enumeration certifies both
    sides: no single tower works, some pair does. The formula still
    returns its stated value; the discrepancy is the documented fact.
    """
    instances = [
        (7, 2, 3, 3),
        (9, 2, 4, 4),
        (6, 3, 2, 2),
        (9, 3, 3, 3),
        (10, 3, 3, 3),
        (12, 3, 4, 4),
        (13, 3, 4, 4),
    ]
    for n, k, t, r in instances:
        spec = GraphSpec.path_power(n, k)
        params = SignalParams(t, r)
        assert gamma_path_power(n, k, t, r) == 3
        assert not any(
            is_broadcasting(TowerSet(spec, pair), params).ok
            for pair in combinations(range(n), 1)
        )
        assert any(
            is_broadcasting(TowerSet(spec, pair), params).ok
            for pair in combinations(range(n), 2)
        )
        # the construction still certifies the formula's own count
        built = construct_path_towers(n, k, t, r)
        assert len(built.vertices) == 3
        assert is_broadcasting(built, params).ok


def test_hand_checked_cooperation_witness():
    # towers 2 and 4 on the 7-vertex squared path at strength=demand=3:
    # every vertex sits within base distance 2 of one tower (signal 2)
    # and within 4 of the other (signal 1)
    spec = GraphSpec.path_power(7, 2)
    assert is_broadcasting(TowerSet(spec, (2, 4)), SignalParams(3, 3)).ok
