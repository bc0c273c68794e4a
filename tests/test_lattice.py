"""Periodic configurations: reduction, density, verification, excess."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trbroadcast import errors, lattice
from trbroadcast import (
    GraphSpec,
    InputError,
    LatticeConfig,
    SignalParams,
    TowerSet,
    axis_periods,
    centered_t1_frame,
    config_from_json_dict,
    density,
    distance,
    excess_at,
    excess_report,
    fundamental_domain,
    is_broadcasting,
    promote_check,
    promotion_excess_profile,
    reduce_point,
    t1_tiling,
    t3_tiling,
    verify_periodic,
    window_excess,
)
from trbroadcast.lattice import _cell, _fold, _signal_field


def small_bases():
    return st.tuples(
        st.tuples(st.integers(1, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(1, 5)),
    ).filter(lambda ab: ab[0][0] * ab[1][1] - ab[0][1] * ab[1][0] != 0)


def cramer_coefficients(config, v):
    """(m, n) with m*a + n*b == v exactly, by Cramer's rule, as Fractions."""
    (ax, ay), (bx, by) = config.a, config.b
    det = config.det
    return (Fraction(v[0] * by - v[1] * bx, det), Fraction(ax * v[1] - ay * v[0], det))


def cramer_reduce(config, v):
    """Oracle for congruence modulo the lattice: v's representative in
    the half-open fundamental parallelogram {x*a + y*b : 0 <= x, y < 1}.

    Writes v = m*a + n*b by Cramer's rule and drops the integer parts
    of m and n. It shares nothing with lattice._fold, so it referees
    _cell and reduce_point: two points get the same representative here
    exactly when they are congruent.
    """
    m, n = (math.floor(c) for c in cramer_coefficients(config, v))
    (ax, ay), (bx, by) = config.a, config.b
    return (v[0] - m * ax - n * bx, v[1] - m * ay - n * by)


# ------------------------------------------------------------ construction


def test_config_validation():
    with pytest.raises(InputError):
        LatticeConfig((1, 2), (2, 4))  # parallel basis
    with pytest.raises(InputError):
        LatticeConfig((1, 0), (0, 1), offsets=())
    with pytest.raises(InputError):
        LatticeConfig((2, 0), (0, 2), offsets=((0, 0), (2, 0)))  # same residue
    with pytest.raises(InputError):
        LatticeConfig((1, 0, 0), (0, 1))
    with pytest.raises(InputError, match="^offsets must be integer pairs$"):
        LatticeConfig((2, 0), (0, 2), offsets=((0, 0), (1,)))
    # A value with no length is refused as bad input, not a TypeError.
    with pytest.raises(InputError, match="^offsets must be integer pairs$"):
        LatticeConfig((1, 0), (0, 1), offsets=(5,))
    with pytest.raises(InputError, match="^basis vector a must be an integer pair$"):
        LatticeConfig(5, (0, 1))
    # distinct residues are fine
    LatticeConfig((2, 0), (0, 2), offsets=((0, 0), (1, 1)))


def test_config_json_round_trip():
    config = LatticeConfig((4, 3), (3, -4), offsets=((0, 0), (1, 2)))
    assert config_from_json_dict(config.to_json_dict()) == config
    with pytest.raises(InputError):
        config_from_json_dict({"a": [1, 0], "b": [0, 1]})
    with pytest.raises(InputError):
        config_from_json_dict({"a": [1], "b": [0, 1], "offsets": [[0, 0]]})
    with pytest.raises(InputError):
        config_from_json_dict("not a dict")


def test_named_constructors():
    assert t3_tiling(5) == LatticeConfig((4, 3), (3, -4))
    assert t3_tiling(5).index == 25
    assert t3_tiling(3).index == 5
    assert t3_tiling(4).index == 13
    assert t1_tiling(5).index == 41
    assert centered_t1_frame(5).offsets == ((4, 0),)
    with pytest.raises(InputError):
        t1_tiling(1)
    with pytest.raises(InputError):
        t3_tiling(2)
    with pytest.raises(InputError):
        centered_t1_frame(1)


def test_centered_frame_towers_surround_origin():
    # the four nearest towers of the centered frame, all at distance t-1 or t
    config = centered_t1_frame(5)
    reps = {reduce_point(config, o) for o in config.offsets}
    for tower in [(4, 0), (-1, -4), (-5, 1), (0, 5)]:
        assert reduce_point(config, tower) in reps


# ------------------------------------------------------- reduction basics


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_bases(), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-4, 4), st.integers(-4, 4))
def test_reduce_point_translation_invariance(ab, x, y, m, n):
    a, b = ab
    config = LatticeConfig(a, b)
    shifted = (x + m * a[0] + n * b[0], y + m * a[1] + n * b[1])
    assert reduce_point(config, shifted) == reduce_point(config, (x, y))
    rep = reduce_point(config, (x, y))
    assert reduce_point(config, rep) == rep
    assert rep in fundamental_domain(config)
    m, n = cramer_coefficients(config, (x - rep[0], y - rep[1]))
    assert m.denominator == n.denominator == 1  # v - rep is a lattice vector


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_bases())
def test_axis_periods_are_minimal_lattice_points(ab):
    config = LatticeConfig(*ab)
    p1, p2 = axis_periods(config)
    # triangularizing the basis gives the y-axis period from the x-coordinates
    assert p2 == config.index // math.gcd(ab[0][0], ab[1][0])
    origin = cramer_reduce(config, (0, 0))
    assert cramer_reduce(config, (p1, 0)) == origin
    assert cramer_reduce(config, (0, p2)) == origin
    for q in range(1, min(p1, 30)):
        assert cramer_reduce(config, (q, 0)) != origin
    for q in range(1, min(p2, 30)):
        assert cramer_reduce(config, (0, q)) != origin


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_bases())
def test_fundamental_domain_is_a_transversal(ab):
    config = LatticeConfig(*ab)
    domain = fundamental_domain(config)
    assert len(domain) == config.index
    assert len({cramer_reduce(config, pt) for pt in domain}) == config.index


def reference_field(config, params):
    """Oracle for _signal_field: a per-stamp fold.

    Every point of every diamond goes through cramer_reduce. Returns the
    capped signal of each cell in fundamental_domain order.
    """
    t, r = params.t, params.r
    capped = {cramer_reduce(config, cell): 0 for cell in fundamental_domain(config)}
    for ox, oy in config.offsets:
        for dy in range(1 - t, t):
            reach = t - 1 - abs(dy)
            for dx in range(-reach, reach + 1):
                capped[cramer_reduce(config, (ox + dx, oy + dy))] += min(r, t - abs(dx) - abs(dy))
    return list(capped.values())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_bases(),
       st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=4),
       st.integers(1, 12), st.integers(1, 8))
def test_signal_field_equals_per_stamp_reference(ab, offsets, t, r):
    try:
        config = LatticeConfig(*ab, offsets=tuple(offsets))
    except InputError:
        assume(False)
    params = SignalParams(t, r)
    assert _signal_field(config, params) == reference_field(config, params)


@pytest.mark.parametrize(
    "a,b,offsets,t,r",
    [
        ((1, 0), (0, 5), ((0, 0),), 4, 2),  # p1 = 1: every row is one cell wide
        ((1, 0), (3, 7), ((-2, 5), (0, 1)), 6, 3),  # p1 = 1, a_y = 0
        ((5, 0), (2, 3), ((0, 0), (-7, -4)), 9, 4),  # a_y = 0, rows wrap
        ((4, 3), (3, -4), ((0, 0),), 5, 3),  # s = 1
        ((3, 2), (-4, 0), ((-1, -1), (2, 0), (0, 2)), 8, 5),  # b_y = 0
        ((-2, 3), (5, -1), ((-9, 4), (1, 1), (3, -8), (0, 0)), 7, 2),  # negative basis, 4 offsets
        ((2, 0), (1, 6), ((0, 0),), 13, 3),  # t - 1 = 12 > p1 = 2: rows wrap up to 13 times
        ((3, 1), (0, 4), ((-5, -5), (1, 2)), 11, 6),  # b_x = 0, p1 = 12
    ],
)
def test_signal_field_edge_cases_equal_the_reference(a, b, offsets, t, r):
    config = LatticeConfig(a, b, offsets)
    params = SignalParams(t, r)
    assert _signal_field(config, params) == reference_field(config, params)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_bases(), st.integers(-40, 40), st.integers(-40, 40))
@example(((1, 0), (0, 5)), 3, -7)  # p1 = 1
@example(((3, 2), (-4, 0)), -11, 5)  # b_y = 0
@example(((-2, 3), (5, -1)), 8, -9)  # negative basis entries
@example(((2, -6), (1, 3)), -1, 13)
def test_fold_is_the_hermite_normal_form(ab, x, y):
    config = LatticeConfig(*ab)
    p1, s, j = _fold(config)
    assert (p1, p1 * s) == (axis_periods(config)[0], config.index)
    assert 0 <= j < p1
    origin = cramer_reduce(config, (0, 0))
    assert cramer_reduce(config, (p1, 0)) == origin
    assert cramer_reduce(config, (j, s)) == origin
    domain = fundamental_domain(config)
    assert [_cell(config, pt) for pt in domain] == list(range(config.index))
    a, b = config.a, config.b
    cell = _cell(config, (x, y))
    assert _cell(config, (x + a[0], y + a[1])) == cell
    assert _cell(config, (x + b[0], y + b[1])) == cell
    assert cramer_reduce(config, domain[cell]) == cramer_reduce(config, (x, y))
    assert reduce_point(config, (x, y)) == domain[cell]


def _fold_counter(monkeypatch):
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return _fold(cfg)

    def folds(call):
        calls.clear()
        call()
        return list(calls)

    monkeypatch.setattr(lattice, "_fold", counting)
    return folds


def test_lattice_calls_fold_a_fixed_number_of_times(monkeypatch):
    # Building a configuration folds its basis once and keeps the
    # Hermite form; no call folds again, however many points it maps:
    # the profile maps 2k x 2k cells and window_excess its 63 window
    # cells. Each profile folds only the frame it builds.
    folds = _fold_counter(monkeypatch)
    offsets = tuple((x, y) for x in range(3) for y in range(3))
    assert folds(lambda: LatticeConfig((3, 0), (0, 3), offsets)) == [
        LatticeConfig((3, 0), (0, 3), offsets)]
    config, params, frame = t3_tiling(40), SignalParams(40, 3), centered_t1_frame(60)
    assert folds(lambda: promotion_excess_profile(60, 3)) == [frame]
    assert folds(lambda: promotion_excess_profile(60, 10)) == [frame]
    for orientation in ("E", "N", "W", "S"):
        assert folds(lambda: window_excess(config, params, (0, 0), orientation)) == []
    assert folds(lambda: excess_at(config, params, (5, -3))) == []


def test_lattice_audits_fold_no_point_per_stamp(monkeypatch):
    # Every audit stamps offsets x (2t^2 - 2t + 1) cells, OK or FAIL,
    # yet folds no basis at all: the configuration folded once when it
    # was built, and a per-stamp fold would scale with the stamps.
    folds = _fold_counter(monkeypatch)
    skew, tiling = LatticeConfig((4, 3), (3, -4), ((0, 0), (2, 1))), t3_tiling(9)
    ok, fail = SignalParams(7, 3), SignalParams(2, 3)
    assert verify_periodic(skew, ok).ok and not verify_periodic(skew, fail).ok
    assert folds(lambda: verify_periodic(skew, ok)) == []
    assert folds(lambda: verify_periodic(skew, fail)) == []
    assert folds(lambda: promote_check(tiling, 9, 2, 2)) == []
    assert folds(lambda: window_excess(skew, ok, (2, 1), "N")) == []
    assert folds(lambda: excess_at(skew, ok, (5, -3))) == []
    assert excess_report(skew, ok).broadcasting and not excess_report(skew, fail).broadcasting
    assert folds(lambda: excess_report(skew, ok)) == []
    assert folds(lambda: excess_report(skew, fail)) == []


def test_the_stored_hermite_form_is_invisible():
    config = LatticeConfig((4, 3), (3, -4), ((0, 0), (2, 1)))
    assert repr(config) == "LatticeConfig(a=(4, 3), b=(3, -4), offsets=((0, 0), (2, 1)))"
    twin = LatticeConfig((4, 3), (3, -4), ((0, 0), (2, 1)))
    assert twin == config and hash(twin) == hash(config)
    assert dataclasses.asdict(config) == {"a": (4, 3), "b": (3, -4), "offsets": ((0, 0), (2, 1))}
    # replace() builds anew, so the new basis gets its own form.
    moved = dataclasses.replace(config, a=(5, 3))
    assert axis_periods(moved) == (29, 29)
    domain = fundamental_domain(moved)
    for pt in [(x, y) for x in range(-8, 9) for y in range(-8, 9)]:
        cell = domain[_cell(moved, pt)]
        assert cell == reduce_point(moved, pt)
        assert cramer_reduce(moved, cell) == cramer_reduce(moved, pt)


def test_signal_field_refuses_an_oversized_domain(monkeypatch):
    # t3_tiling(5) at t = 5: 25 cells and 41 stamps, both at most 41.
    monkeypatch.setattr(errors, "MAX_ENTRIES", 41)
    assert len(_signal_field(t3_tiling(5), SignalParams(5, 3))) == 25
    # 61 cells and 61 stamps: the cells are checked first.
    with pytest.raises(InputError, match=r"\|det\| = 61 cells, over the limit of 41"):
        _signal_field(t1_tiling(6), SignalParams(6, 1))
    with pytest.raises(InputError, match="over the limit"):
        verify_periodic(t1_tiling(6), SignalParams(6, 1))
    # 25 cells, but 61 stamps at t = 6, or 2 x 41 with two offsets.
    with pytest.raises(InputError, match=r"t = 6 needs 61 stamps.*over the limit of 41"):
        _signal_field(t3_tiling(5), SignalParams(6, 3))
    two = LatticeConfig(t3_tiling(5).a, t3_tiling(5).b, ((0, 0), (1, 0)))
    with pytest.raises(InputError, match=r"t = 5 needs 82 stamps.*over the limit of 41"):
        verify_periodic(two, SignalParams(5, 3))


def test_axis_periods_examples():
    assert axis_periods(t1_tiling(5)) == (41, 41)
    assert axis_periods(t3_tiling(5)) == (25, 25)
    assert axis_periods(LatticeConfig((1, 0), (0, 1))) == (1, 1)


# ---------------------------------------------------------------- density


def test_density_examples():
    assert density(t3_tiling(5)) == Fraction(1, 25)
    assert density(t1_tiling(5)) == Fraction(1, 41)
    assert density(t1_tiling(2)) == Fraction(1, 5)
    two = LatticeConfig((4, 0), (0, 4), offsets=((0, 0), (2, 2)))
    assert density(two) == Fraction(2, 16)


def test_density_closed_forms():
    for t in range(2, 21):
        assert density(t1_tiling(t)) == Fraction(1, 2 * t * t - 2 * t + 1)
    for t in range(3, 21):
        assert density(t3_tiling(t)) == Fraction(1, (t - 1) ** 2 + (t - 2) ** 2)


# ----------------------------------------------------------- verification


def test_tilings_broadcast_at_their_design_parameters():
    for t in range(2, 13):
        assert verify_periodic(t1_tiling(t), SignalParams(t, 1)).ok
    # the paper proves the (t, 3) pattern minimal for t > 17
    for t in [*range(3, 13), 18, 25, 40, 60]:
        assert verify_periodic(t3_tiling(t), SignalParams(t, 3)).ok


def test_underpowered_tiling_fails_with_witness():
    check = verify_periodic(t3_tiling(5), SignalParams(4, 3))
    assert not check.ok
    assert check.witness == (2, 0)
    assert check.signal == 2
    # the witness really is deficient, under the name the report uses
    config = t3_tiling(5)
    report = excess_report(config, SignalParams(4, 3))
    assert report.per_vertex[check.witness] == (2, -1)
    assert reduce_point(config, check.witness) == check.witness


def test_perfect_cover_hears_exactly_one_tower():
    # Counts tower positions in each diamond directly: a point is a tower
    # when it reduces to the same cell as one of the offsets.
    for t in (2, 3, 5, 8):
        config = t1_tiling(t)
        tower_cells = {cramer_reduce(config, o) for o in config.offsets}
        for px, py in fundamental_domain(config):
            heard = [
                (px + dx, py + dy)
                for dy in range(1 - t, t)
                for dx in range(abs(dy) - t + 1, t - abs(dy))
                if cramer_reduce(config, (px + dx, py + dy)) in tower_cells
            ]
            assert len(heard) == 1


# ------------------------------------------------------------ excess math


def test_t3_excess_landscape_at_design_strength():
    config = t3_tiling(5)
    params = SignalParams(5, 3)
    report = excess_report(config, params)
    assert report.broadcasting
    assert report.total_excess == 4
    assert report.towers_per_domain == 1
    assert report.avg_excess_per_tower == Fraction(4)
    assert report.period == (25, 25)
    assert len(report.per_vertex) == 25
    positives = {v for v, (_, e) in report.per_vertex.items() if e > 0}
    expected = {reduce_point(config, p) for p in [(3, 0), (-3, 0), (0, 3), (0, -3)]}
    assert positives == expected
    for v in positives:
        assert report.per_vertex[v] == (4, 1)
    # spot values from the report and the pointwise excess accessor
    assert report.per_vertex[reduce_point(config, (3, 0))] == (4, 1)
    assert excess_at(config, params, (3, 0)) == 1
    assert excess_at(config, params, (0, 0)) == 0


def test_total_excess_is_four_across_the_strength_range():
    for t in [*range(4, 13), 18, 25, 40, 60]:
        assert excess_report(t3_tiling(t), SignalParams(t, 3)).total_excess == 4
        assert excess_report(t1_tiling(t), SignalParams(t + 1, 3)).total_excess == 4


def test_perfect_tiling_has_zero_excess():
    # At r = 1 each tower within t - 1 caps to exactly 1, so capped
    # signal 1 everywhere means every cell hears exactly one tower.
    for t in (2, 3, 5, 8):
        config = t1_tiling(t)
        report = excess_report(config, SignalParams(t, 1))
        assert report.broadcasting
        assert report.total_excess == 0
        assert len(report.per_vertex) == config.index
        assert all(v == (1, 0) for v in report.per_vertex.values())


def test_report_flags_deficient_configuration():
    report = excess_report(t3_tiling(5), SignalParams(4, 3))
    assert not report.broadcasting
    assert any(e < 0 for _, e in report.per_vertex.values())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_bases(),
       st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=4),
       st.integers(1, 5), st.integers(1, 3))
def test_report_and_verdict_name_cells_alike(ab, offsets, t, shortfall):
    # r sits 1 to 3 above the least raw signal (capping at r = t changes
    # nothing), so every drawn (t, r) fails and has a witness
    try:
        config = LatticeConfig(*ab, offsets=tuple(offsets))
    except InputError:
        assume(False)
    params = SignalParams(t, min(_signal_field(config, SignalParams(t, t))) + shortfall)
    check = verify_periodic(config, params)
    report = excess_report(config, params)
    assert list(report.per_vertex) == fundamental_domain(config)
    first = next(v for v, (_, e) in report.per_vertex.items() if e < 0)
    assert first == check.witness


# -------------------------------------------------------------- windowing


def test_window_excess_frozen_values():
    config = t3_tiling(5)
    params = SignalParams(5, 3)
    for orientation in "ENWS":
        assert window_excess(config, params, (0, 0), orientation) == 10
    # away from the t=5 special case the window holds exactly the minimum
    for t in range(6, 13):
        assert window_excess(t3_tiling(t), SignalParams(t, 3), (0, 0), "E") == 4


def test_window_excess_zero_on_perfect_cover():
    assert window_excess(t1_tiling(6), SignalParams(6, 1), (0, 0), "E") == 0


def test_window_excess_at_translated_tower():
    config = t3_tiling(6)
    params = SignalParams(6, 3)
    a, b = config.a, config.b
    tower = (a[0] + 2 * b[0], a[1] + 2 * b[1])
    assert window_excess(config, params, tower, "E") == window_excess(
        config, params, (0, 0), "E"
    )


def test_window_excess_input_errors():
    config = t3_tiling(5)
    with pytest.raises(InputError):
        window_excess(t3_tiling(4), SignalParams(4, 3), (0, 0), "E")
    with pytest.raises(InputError):
        window_excess(config, SignalParams(5, 3), (1, 0), "E")  # not a tower
    with pytest.raises(InputError):
        window_excess(config, SignalParams(5, 3), (0, 0), "Q")
    # A tower must be an integer pair, checked as LatticeConfig checks an offset.
    with pytest.raises(InputError, match=r"^tower must be an integer pair, got \(0\.0, 0\)$"):
        window_excess(t3_tiling(6), SignalParams(6, 3), (0.0, 0))
    with pytest.raises(InputError, match=r"^tower must be an integer pair, got \(0, 0, 5\)$"):
        window_excess(t3_tiling(6), SignalParams(6, 3), (0, 0, 5))
    with pytest.raises(InputError, match=r"^tower must be an integer pair, got 0$"):
        window_excess(t3_tiling(6), SignalParams(6, 3), 0)


# -------------------------------------------------------------- promotion


def test_promote_check_holds_on_tilings():
    for t in range(2, 11):
        for k in range(0, 4):
            assert promote_check(t1_tiling(t), t, 1, k)
    for t in range(3, 11):
        for k in range(0, 4):
            assert promote_check(t3_tiling(t), t, 2, k)


def test_promote_check_requires_a_broadcasting_base():
    with pytest.raises(InputError):
        promote_check(t1_tiling(5), 4, 1, 1)  # not broadcasting at (4,1)
    with pytest.raises(InputError):
        promote_check(t1_tiling(5), 5, 3, 1)  # base demand must be 1 or 2
    with pytest.raises(InputError):
        promote_check(t1_tiling(5), 5, 1, -1)


# ---------------------------------------------------------------- profile


def test_promotion_profile_single_step():
    profile = promotion_excess_profile(5, 1)
    assert profile.audit_params == SignalParams(6, 3)
    assert set(profile.square) == {(0, 0), (-1, 0), (-1, 1), (0, 1)}
    assert [(d.diagonal, d.claimed, d.observed) for d in profile.per_diagonal] == [
        (-1, 3, (1,)),
        (0, 1, (1, 1)),
        (1, -1, (1,)),
    ]
    assert profile.square_excess_sum == 4
    assert profile.domain_total_excess == 4
    assert profile.average_per_tower == Fraction(4)
    assert profile.claimed_total == Fraction(1)
    assert profile.all_excess_inside_square
    assert not profile.matches_claimed


def test_promotion_profile_totals_do_not_depend_on_strength():
    expected = {1: 4, 2: 20, 3: 56}
    for k, total in expected.items():
        for t in range(5, 9):
            profile = promotion_excess_profile(t, k)
            assert profile.domain_total_excess == total
            assert profile.square_excess_sum == total
            assert profile.all_excess_inside_square
            assert not profile.matches_claimed


def test_promotion_profile_validation():
    with pytest.raises(InputError):
        promotion_excess_profile(5, 0)
    with pytest.raises(InputError):
        promotion_excess_profile(3, 3)


# ------------------------------------------------- finite torus cross-check


def embed_on_torus(config, params):
    """Materialize the periodic configuration on a finite torus.

    The torus sides are multiples of the axis periods, padded so that a
    tower never reaches any vertex along two different wrap-arounds.
    """
    p1, p2 = axis_periods(config)
    c1 = max(3, -(-(2 * params.t - 1) // p1))
    c2 = max(3, -(-(2 * params.t - 1) // p2))
    spec = GraphSpec.torus(c2 * p2, c1 * p1)
    reps = {reduce_point(config, o) for o in config.offsets}
    towers = tuple(
        v for v in range(spec.num_vertices)
        if reduce_point(config, (v % spec.cols, v // spec.cols)) in reps
    )
    return spec, TowerSet(spec, towers)


def torus_gains(spec, towers, t, cells):
    """t - d from every torus tower at each cell, per pair through distance()."""
    return [[max(0, t - distance(spec, u, y * spec.cols + x)) for u in towers.vertices]
            for x, y in cells]


@pytest.mark.parametrize(
    "config,params",
    [
        (t3_tiling(4), SignalParams(4, 3)),
        (t3_tiling(5), SignalParams(5, 3)),
        (t1_tiling(4), SignalParams(5, 3)),
        (t1_tiling(3), SignalParams(3, 1)),
        # underpowered, so some cells fall below demand
        (t3_tiling(5), SignalParams(4, 3)),
        (t1_tiling(4), SignalParams(4, 2)),
    ],
)
def test_excess_report_agrees_with_torus_audit(config, params):
    spec, towers = embed_on_torus(config, params)
    report = excess_report(config, params)
    domain = fundamental_domain(config)
    r = params.r
    for cell, row in zip(domain, torus_gains(spec, towers, params.t, domain)):
        raw, capped = sum(row), sum(min(r, g) for g in row)
        assert report.per_vertex[cell] == (capped, capped - r)
        # below demand no tower is capped, so the capped field is the raw sum
        if raw < r:
            assert capped == raw
        else:
            assert capped >= r
    assert report.broadcasting == is_broadcasting(towers, params).ok


def test_verify_periodic_agrees_with_torus_on_random_configs():
    """verify_periodic against per-vertex torus audits on random configs.

    Configs carry 1 to 4 offsets; about half use a strength whose radius
    t - 1 exceeds both axis periods, so one diamond wraps the domain
    several times. The demand sits at the torus minimum plus -1, 0 or 1,
    so both verdicts occur, and a FAIL must name the first deficient
    cell in transversal order with its torus raw signal. The excess
    report must match the torus capped signal cell by cell.
    """
    rng = random.Random(7)
    checked = multi = wide = fails = 0
    while checked < 80:
        wrap = rng.random() < 0.5
        span = 3 if wrap else 6
        a = (rng.randint(1, span), rng.randint(-span, span))
        b = (rng.randint(-span, span), rng.randint(1, span))
        index = abs(a[0] * b[1] - a[1] * b[0])
        if not 0 < index <= 60:
            continue
        offsets = tuple(
            (rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(rng.randint(1, min(4, index)))
        )
        try:
            config = LatticeConfig(a, b, offsets)
        except InputError:
            continue
        longest = max(axis_periods(config))
        if wrap and longest <= 8:
            t = longest + rng.randint(2, 5)
        else:
            t = rng.randint(2, 6)
        spec, towers = embed_on_torus(config, SignalParams(t, 1))
        if spec.num_vertices > 2500:
            continue
        domain = fundamental_domain(config)
        gains = torus_gains(spec, towers, t, domain)
        reference = [sum(row) for row in gains]
        params = SignalParams(t, max(1, min(reference) + rng.randint(-1, 1)))
        assert _signal_field(config, params) == reference_field(config, params)
        check = verify_periodic(config, params)
        assert check.ok == is_broadcasting(towers, params).ok
        deficient = [i for i, raw in enumerate(reference) if raw < params.r]
        if deficient:
            assert (check.witness, check.signal) == (domain[deficient[0]],
                                                     reference[deficient[0]])
        else:
            assert check.ok and check.witness is None
        report = excess_report(config, params)
        assert report.broadcasting == check.ok
        for cell, row in zip(domain, gains):
            capped = sum(min(params.r, g) for g in row)
            assert report.per_vertex[cell] == (capped, capped - params.r)
        checked += 1
        multi += len(offsets) > 1
        wide += t - 1 > longest
        fails += not check.ok
    assert multi >= 20 and wide >= 20 and 10 <= fails <= 70
