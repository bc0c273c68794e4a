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
    distance,
    is_broadcasting,
    towers_from_json_dict,
)
from trbroadcast.formulas import _period
from trbroadcast.signal import weighted_bound


def test_params_validation():
    with pytest.raises(InputError):
        SignalParams(0, 1)
    with pytest.raises(InputError):
        SignalParams(3, 0)
    # t < r is allowed at the engine level, only constructions insist on t >= r
    SignalParams(2, 5)
    # t and r must be ints: not floats, which later fail with TypeError, nor bools.
    with pytest.raises(InputError, match=r"^t must be an integer, got 2\.5$"):
        SignalParams(2.5, 1)
    with pytest.raises(InputError, match=r"^r must be an integer, got 1\.0$"):
        SignalParams(2, 1.0)
    with pytest.raises(InputError, match=r"^t must be an integer, got True$"):
        SignalParams(True, True)


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


def test_audit_vertex_examples():
    """Raw signal, capped signal and excess at one vertex, per pair through
    distance(), and the raw signal is_broadcasting reports at a shortfall."""
    path5, path3 = GraphSpec.path_power(5, 1), GraphSpec.path_power(3, 1)
    for towers, params, v, want in [
        (TowerSet(path5, (2,)), SignalParams(3, 1), 0, (1, 1, 0)),
        (TowerSet(path3, (0, 2)), SignalParams(2, 2), 1, (2, 2, 0)),
        # contributions 3+2+2 raw, capped at 2 each
        (TowerSet(path3, (0, 1, 2)), SignalParams(3, 2), 1, (7, 6, 4)),
    ]:
        row = gains(towers, params.t)[v]
        capped = sum(min(params.r, g) for g in row)
        assert (sum(row), capped, capped - params.r) == want

    # the reported signal is the raw sum: 1 from a tower two steps away
    check = is_broadcasting(
        TowerSet(GraphSpec.path_power(5, 1), (2,)), SignalParams(3, 2)
    )
    assert check == BroadcastCheck(False, 0, 1)
    # 1 + 1 from the two ends meets demand 2 in the middle
    assert is_broadcasting(
        TowerSet(GraphSpec.path_power(3, 1), (0, 2)), SignalParams(2, 2)
    ).ok
    # contributions 3 + 2 + 2 at every vertex of the triangle, uncapped
    towers = TowerSet(GraphSpec.cycle_power(3, 1), (0, 1, 2))
    assert is_broadcasting(towers, SignalParams(3, 7)).ok
    assert is_broadcasting(towers, SignalParams(3, 8)) == BroadcastCheck(False, 0, 7)


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

    towers = TowerSet(spec, (0, 3, 5))
    assert towers_from_json_dict(towers.to_json_dict()) == towers


def test_towers_from_json_rejects_malformed():
    with pytest.raises(InputError):
        towers_from_json_dict({"towers": [0]})
    with pytest.raises(InputError):
        towers_from_json_dict({"spec": "path:n=3,k=1", "towers": ["x"]})
    with pytest.raises(InputError):
        towers_from_json_dict([1, 2])
    with pytest.raises(InputError, match="^'towers' must be a list of integers$"):
        towers_from_json_dict({"spec": "path:n=3,k=1", "towers": 5})


def test_weighted_bound_rejects_bad_weights():
    spec, params = GraphSpec.path_power(4, 1), SignalParams(2, 1)
    assert weighted_bound(spec, params, [1, 0, 0, 1]) == (2, 1)
    for weights in ([1, -1, 1, 1], [1, 1, 1]):
        with pytest.raises(InputError, match="^weights must be one nonnegative integer per vertex$"):
            weighted_bound(spec, params, weights)


def max_capped_supply(spec, t_max):
    """Largest capped supply of one tower on spec, for each t <= t_max and
    r <= t, summed per pair through distance(). It is also the scale D
    that weight 1 on every vertex gives weighted_bound."""
    nv = spec.num_vertices
    rows = [[distance(spec, u, v) for v in range(nv)] for u in range(nv)]
    supplies = {}
    for t in range(1, t_max + 1):
        for r in range(1, t + 1):
            params = SignalParams(t, r)
            supply = max(sum(min(r, max(0, t - d)) for d in row) for row in rows)
            assert weighted_bound(spec, params, [1] * nv)[1] == supply
            supplies[t, r] = supply
    return supplies


def test_tower_supply_is_r_times_the_period_examples():
    # the capped supply of one central tower on a long path power is r
    # times the closed forms' period (2t - r - 1)k + 1
    assert _period(1, 3, 2) * 2 == 8
    assert _period(1, 1, 1) * 1 == 1
    assert _period(2, 3, 2) * 2 == 14


def test_tower_supply_on_paths_and_cycles_peaks_at_r_times_the_period():
    """A central tower on a long path realizes r times the period exactly,
    and no tower on a finite path or cycle power supplies more."""
    for k in range(1, 4):
        for t in range(1, 7):
            for r in range(1, t + 1):
                spec = GraphSpec.path_power(4 * k * t + 1, k)
                center = spec.num_vertices // 2
                got = sum(
                    min(r, max(0, t - distance(spec, center, v)))
                    for v in range(spec.num_vertices)
                )
                assert got == _period(k, t, r) * r
    for k in range(1, 4):
        for n in range(1, 15):
            for spec in (GraphSpec.path_power(n, k), GraphSpec.cycle_power(n, k)):
                for (t, r), supply in max_capped_supply(spec, 5).items():
                    assert supply <= _period(k, t, r) * r, (spec, t, r)


def diamond_cap(t, r):
    """Capped signal of one tower summed over its diamond in the infinite grid."""
    return sum(
        min(r, max(0, t - abs(dx) - abs(dy)))
        for dx in range(-t, t + 1)
        for dy in range(-t, t + 1)
    )


def test_diamond_supply_examples_and_demand_3_identity():
    assert diamond_cap(5, 3) == 79
    assert diamond_cap(2, 1) == 5
    # demand-3 identity used by the density accounting; c08 reads it off
    # the lattice field of the (t, 3) tiling
    for t in range(4, 13):
        assert diamond_cap(t, 3) == 3 * (2 * t * t - 6 * t + 5) + 4


def test_tower_supply_on_grids_and_tori_is_at_most_the_diamond_sum():
    """No tower on a finite grid or torus supplies more than the diamond
    sum of the infinite grid."""
    cap = {(t, r): diamond_cap(t, r) for t in range(1, 7) for r in range(1, t + 1)}
    for rows in range(1, 7):
        for cols in range(1, 7):
            for spec in (GraphSpec.grid(rows, cols), GraphSpec.torus(rows, cols)):
                for (t, r), supply in max_capped_supply(spec, 6).items():
                    assert supply <= cap[t, r], (spec, t, r)


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
    return spec, TowerSet(spec, tuple(sorted(towers))), SignalParams(t, r)


def gains(towers, t):
    """t - d from every tower at each vertex, per pair through distance()."""
    spec = towers.spec
    return [[max(0, t - distance(spec, u, v)) for u in towers.vertices]
            for v in range(spec.num_vertices)]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(towered_graph())
def test_cap_consistency(case):
    # capping per-tower contributions at r never flips satisfaction, so
    # the capped sums decide broadcasting as the raw check does
    _, towers, params = case
    r = params.r
    capped_ok = True
    for row in gains(towers, params.t):
        raw, capped = sum(row), sum(min(r, g) for g in row)
        assert capped <= raw
        assert (capped >= r) == (raw >= r)
        capped_ok &= capped >= r
    assert is_broadcasting(towers, params).ok == capped_ok


@settings(derandomize=True, max_examples=80, deadline=None)
@given(towered_graph(), st.data())
def test_adding_a_tower_never_hurts(case, data):
    spec, towers, params = case
    free = sorted(set(range(spec.num_vertices)) - set(towers.vertices))
    if not free:
        return
    extra = data.draw(st.sampled_from(free))
    bigger = TowerSet(spec, tuple(sorted(set(towers.vertices) | {extra})))
    r = params.r
    for before, after in zip(gains(towers, params.t), gains(bigger, params.t)):
        assert sum(after) >= sum(before)
        assert sum(min(r, g) for g in after) >= sum(min(r, g) for g in before)
    # a shortfall of the bigger set is a shortfall of the smaller one
    check, bigger_check = is_broadcasting(towers, params), is_broadcasting(bigger, params)
    assert check.ok <= bigger_check.ok
    if not bigger_check.ok:
        assert check.deficient_vertex <= bigger_check.deficient_vertex


@settings(derandomize=True, max_examples=80, deadline=None)
@given(towered_graph())
def test_broadcast_check_matches_vertex_audits(case):
    # is_broadcasting runs on the stencil kernel; the reference here is
    # the per-pair definition, summed over every tower through distance().
    _, towers, params = case
    r = params.r
    raw = [sum(row) for row in gains(towers, params.t)]
    check = is_broadcasting(towers, params)
    deficient = [v for v, signal in enumerate(raw) if signal < r]
    if deficient:
        assert not check.ok
        assert check.deficient_vertex == deficient[0]
        assert check.signal == raw[deficient[0]]
    else:
        assert check == BroadcastCheck(True)
