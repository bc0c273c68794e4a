"""Signal sums, broadcast checks, and per-tower capacity accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trbroadcast import (
    BroadcastCheck,
    GraphSpec,
    InputError,
    SignalParams,
    TowerSet,
    audit_vertex,
    distance,
    is_broadcasting,
    towers_from_json_dict,
    usable_cap_1d,
    usable_cap_2d,
)


def test_params_validation():
    with pytest.raises(InputError):
        SignalParams(0, 1)
    with pytest.raises(InputError):
        SignalParams(3, 0)
    # t < r is allowed at the engine level, only constructions insist on t >= r
    SignalParams(2, 5)


def test_audit_vertex_examples():
    spec = GraphSpec.path_power(5, 1)
    audit = audit_vertex(TowerSet(spec, (2,)), SignalParams(3, 1), 0)
    assert (audit.raw_signal, audit.capped_signal, audit.excess) == (1, 1, 0)

    spec = GraphSpec.path_power(3, 1)
    audit = audit_vertex(TowerSet(spec, (0, 2)), SignalParams(2, 2), 1)
    assert (audit.raw_signal, audit.capped_signal, audit.excess) == (2, 2, 0)

    # contributions 3+2+2 raw, capped at 2 each
    audit = audit_vertex(TowerSet(spec, (0, 1, 2)), SignalParams(3, 2), 1)
    assert audit.raw_signal == 7
    assert audit.capped_signal == 6
    assert audit.excess == 4


def test_is_broadcasting_reports_first_shortfall():
    check = is_broadcasting(
        TowerSet(GraphSpec.cycle_power(5, 1), (0,)), SignalParams(3, 1)
    )
    assert check.ok and check.deficient_vertex is None

    check = is_broadcasting(
        TowerSet(GraphSpec.path_power(4, 1), (0,)), SignalParams(2, 1)
    )
    assert not check.ok
    assert check.deficient_vertex == 2
    assert check.signal == 0

    # n <= 2(t-r)k+1 keeps a lone tower sufficient on the cycle power
    check = is_broadcasting(
        TowerSet(GraphSpec.cycle_power(7, 2), (0,)), SignalParams(3, 1)
    )
    assert check.ok


def test_tower_set_validation_and_round_trip():
    spec = GraphSpec.path_power(6, 1)
    with pytest.raises(InputError):
        TowerSet(spec, (0, 0))
    with pytest.raises(InputError):
        TowerSet(spec, (3, 1))
    with pytest.raises(InputError):
        TowerSet(spec, (6,))
    with pytest.raises(InputError):
        TowerSet(spec, (-1,))

    towers = TowerSet.from_vertices(spec, [5, 0, 3])
    assert towers.vertices == (0, 3, 5)
    assert towers_from_json_dict(towers.to_json_dict()) == towers


def test_towers_from_json_rejects_malformed():
    with pytest.raises(InputError):
        towers_from_json_dict({"towers": [0]})
    with pytest.raises(InputError):
        towers_from_json_dict({"spec": "path:n=3,k=1", "towers": ["x"]})
    with pytest.raises(InputError):
        towers_from_json_dict([1, 2])


def test_usable_cap_1d_examples():
    assert usable_cap_1d(SignalParams(3, 2), 1) == 8
    assert usable_cap_1d(SignalParams(1, 1), 1) == 1
    assert usable_cap_1d(SignalParams(3, 2), 2) == 14
    with pytest.raises(InputError):
        usable_cap_1d(SignalParams(2, 3), 1)
    with pytest.raises(InputError):
        usable_cap_1d(SignalParams(3, 2), 0)


def max_capped_supply(spec, t_max):
    """Largest capped supply of one tower on spec, for each t <= t_max and
    r <= t, summed per pair through distance()."""
    nv = spec.num_vertices
    rows = [[distance(spec, u, v) for v in range(nv)] for u in range(nv)]
    return {
        (t, r): max(sum(min(r, max(0, t - d)) for d in row) for row in rows)
        for t in range(1, t_max + 1)
        for r in range(1, t + 1)
    }


def test_usable_cap_1d_matches_brute_force_center_tower():
    """A central tower on a long path realizes the 1d cap exactly, and no
    tower on a finite path or cycle power supplies more."""
    for k in range(1, 4):
        for t in range(1, 7):
            for r in range(1, t + 1):
                spec = GraphSpec.path_power(4 * k * t + 1, k)
                center = spec.num_vertices // 2
                got = sum(
                    min(r, max(0, t - distance(spec, center, v)))
                    for v in range(spec.num_vertices)
                )
                assert got == usable_cap_1d(SignalParams(t, r), k)
    for k in range(1, 4):
        for n in range(1, 15):
            for spec in (GraphSpec.path_power(n, k), GraphSpec.cycle_power(n, k)):
                for (t, r), supply in max_capped_supply(spec, 5).items():
                    assert supply <= usable_cap_1d(SignalParams(t, r), k), (spec, t, r)


def test_usable_cap_2d_examples_and_identity():
    assert usable_cap_2d(SignalParams(5, 3)) == 79
    assert usable_cap_2d(SignalParams(2, 1)) == 5
    with pytest.raises(InputError):
        usable_cap_2d(SignalParams(2, 3))
    # demand-3 identity used by the density accounting
    for t in range(4, 13):
        assert usable_cap_2d(SignalParams(t, 3)) == 3 * (2 * t * t - 6 * t + 5) + 4


def test_usable_cap_2d_matches_double_sum():
    for t in range(1, 9):
        for r in range(1, t + 1):
            brute = sum(
                min(r, max(0, t - abs(dx) - abs(dy)))
                for dx in range(-t, t + 1)
                for dy in range(-t, t + 1)
            )
            assert usable_cap_2d(SignalParams(t, r)) == brute
    # no tower on a finite grid or torus supplies more than the infinite grid
    for rows in range(1, 7):
        for cols in range(1, 7):
            for spec in (GraphSpec.grid(rows, cols), GraphSpec.torus(rows, cols)):
                for (t, r), supply in max_capped_supply(spec, 6).items():
                    assert supply <= usable_cap_2d(SignalParams(t, r)), (spec, t, r)


@st.composite
def towered_graph(draw):
    fam = draw(st.sampled_from(["path", "cycle", "grid", "torus"]))
    if fam in ("path", "cycle"):
        n = draw(st.integers(1, 40))
        k = draw(st.integers(1, 3))
        spec = GraphSpec.path_power(n, k) if fam == "path" else GraphSpec.cycle_power(n, k)
    else:
        rows = draw(st.integers(1, 7))
        cols = draw(st.integers(1, 7))
        spec = GraphSpec.grid(rows, cols) if fam == "grid" else GraphSpec.torus(rows, cols)
    n = spec.num_vertices
    towers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 8)))
    t = draw(st.integers(1, 6))
    r = draw(st.integers(1, 6))
    return spec, TowerSet.from_vertices(spec, towers), SignalParams(t, r)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(towered_graph())
def test_cap_consistency(case):
    # capping per-tower contributions at r never flips satisfaction
    spec, towers, params = case
    for v in range(spec.num_vertices):
        audit = audit_vertex(towers, params, v)
        assert audit.capped_signal <= audit.raw_signal
        assert (audit.capped_signal >= params.r) == (audit.raw_signal >= params.r)
        assert audit.excess == audit.capped_signal - params.r


@settings(derandomize=True, max_examples=80, deadline=None)
@given(towered_graph(), st.data())
def test_adding_a_tower_never_hurts(case, data):
    spec, towers, params = case
    free = sorted(set(range(spec.num_vertices)) - set(towers.vertices))
    if not free:
        return
    extra = data.draw(st.sampled_from(free))
    bigger = TowerSet.from_vertices(spec, set(towers.vertices) | {extra})
    for v in range(spec.num_vertices):
        before = audit_vertex(towers, params, v)
        after = audit_vertex(bigger, params, v)
        assert after.raw_signal >= before.raw_signal
        assert after.capped_signal >= before.capped_signal


@settings(derandomize=True, max_examples=80, deadline=None)
@given(towered_graph())
def test_broadcast_check_matches_vertex_audits(case):
    # Both functions run on the stencil kernel; the reference here is the
    # per-pair definition, summed over every tower through distance().
    spec, towers, params = case
    t, r = params.t, params.r
    gains = [
        [max(0, t - distance(spec, u, v)) for u in towers.vertices]
        for v in range(spec.num_vertices)
    ]
    for v, row in enumerate(gains):
        audit = audit_vertex(towers, params, v)
        assert audit.raw_signal == sum(row)
        assert audit.capped_signal == sum(min(r, g) for g in row)
    check = is_broadcasting(towers, params)
    deficient = [v for v, row in enumerate(gains) if sum(row) < r]
    if deficient:
        assert not check.ok
        assert check.deficient_vertex == deficient[0]
        assert check.signal == sum(gains[deficient[0]])
    else:
        assert check == BroadcastCheck(True)
