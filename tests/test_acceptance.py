"""Acceptance suite: one test per headline claim, c01 through c10.

Each test is a single pass/fail line under ``pytest -v``. All values
are exact integers or exact rationals; there are no tolerances. c01
checks the closed-form path count against the exact solver together
with its documented caveat: the two agree wherever r < t or k = 1, and
at r = t with k >= 2 the closed form overcounts by one on exactly the
seven instances listed in PATH_OVERCOUNTS (README "Known findings";
test_formulas.py certifies each of them by exhaustive enumeration).
"""

import random
from fractions import Fraction

from trbroadcast import (
    GraphSpec,
    InputError,
    LatticeConfig,
    SignalParams,
    bfs_distances_from,
    construct_cycle_towers,
    construct_path_towers,
    density,
    distance,
    excess_report,
    gamma_cycle_power,
    gamma_path_power,
    is_broadcasting,
    promote_check,
    promotion_excess_profile,
    solve,
    t1_tiling,
    t3_tiling,
    verify_periodic,
    window_excess,
)

SWEEP = [
    (n, k, t, r)
    for k in range(1, 4)
    for t in range(1, 5)
    for r in range(1, t + 1)
    for n in range(1, 19)
]

# (n, k, t, r) where gamma_path_power exceeds the exact optimum on SWEEP
PATH_OVERCOUNTS = [
    (7, 2, 3, 3),
    (9, 2, 4, 4),
    (6, 3, 2, 2),
    (9, 3, 3, 3),
    (10, 3, 3, 3),
    (12, 3, 4, 4),
    (13, 3, 4, 4),
]


def test_c01_path_closed_form_equals_exact_solver_on_the_sweep():
    mismatches = []
    for n, k, t, r in SWEEP:
        params = SignalParams(t, r)
        formula = gamma_path_power(n, k, t, r)
        spec = GraphSpec.path_power(n, k)
        result = solve(spec, params)
        assert result.proof_of_optimality
        assert (result.witness.spec, len(result.witness.vertices)) == (spec, result.gamma)
        assert is_broadcasting(result.witness, params).ok
        if result.gamma != formula:
            mismatches.append((n, k, t, r, formula, result.gamma))
    outside_caveat = [m for m in mismatches if m[3] < m[2] or m[1] == 1]
    assert not outside_caveat, (
        "closed form disagrees with the exact solver where r < t or k = 1 "
        f"(n, k, t, r, formula, optimum): {outside_caveat}"
    )
    not_by_one = [m for m in mismatches if m[4] - m[5] != 1]
    assert not not_by_one, (
        "closed form misses the optimum by other than +1 "
        f"(n, k, t, r, formula, optimum): {not_by_one}"
    )
    found = {m[:4] for m in mismatches}
    unexpected = sorted(found - set(PATH_OVERCOUNTS))
    missing = sorted(set(PATH_OVERCOUNTS) - found)
    assert not unexpected and not missing, (
        "closed-form overcounts differ from the documented seven (n, k, t, r): "
        f"unexpected {unexpected}, missing {missing}"
    )


def test_c02_cycle_closed_form_equals_exact_solver_on_the_sweep():
    mismatches = []
    seen = set()
    cases = list(SWEEP)
    # force both regime boundaries in even when they exceed the n range
    for k in range(1, 4):
        for t in range(1, 5):
            for r in range(1, t + 1):
                cases.append((2 * (t - r) * k + 1, k, t, r))
                cases.append(((2 * t - r - 1) * k + 1, k, t, r))
    for n, k, t, r in cases:
        if (n, k, t, r) in seen:
            continue
        seen.add((n, k, t, r))
        params = SignalParams(t, r)
        formula = gamma_cycle_power(n, k, t, r)
        spec = GraphSpec.cycle_power(n, k)
        result = solve(spec, params)
        assert result.proof_of_optimality
        assert (result.witness.spec, len(result.witness.vertices)) == (spec, result.gamma)
        assert is_broadcasting(result.witness, params).ok
        if result.gamma != formula:
            mismatches.append((n, k, t, r, formula, result.gamma))
    assert not mismatches, (
        "closed form disagrees with the exact solver on "
        f"{len(mismatches)} instances (n, k, t, r, formula, optimum): {mismatches}"
    )


def test_c03_constructions_are_broadcasting_at_formula_cardinality():
    for n, k, t, r in SWEEP:
        params = SignalParams(t, r)
        path = construct_path_towers(n, k, t, r)
        assert len(path.vertices) == gamma_path_power(n, k, t, r)
        assert is_broadcasting(path, params).ok
        cycle = construct_cycle_towers(n, k, t, r)
        assert len(cycle.vertices) == gamma_cycle_power(n, k, t, r)
        assert is_broadcasting(cycle, params).ok


def test_c04_tiling_densities_are_the_exact_rationals():
    for t in range(3, 21):
        assert density(t1_tiling(t)) == Fraction(1, 2 * t * t - 2 * t + 1)
        assert density(t3_tiling(t)) == Fraction(1, (t - 1) ** 2 + (t - 2) ** 2)


def test_c05_tilings_verify_at_design_and_promoted_parameters():
    for t in range(2, 13):
        assert verify_periodic(t1_tiling(t), SignalParams(t, 1)).ok
        for k in range(1, 4):
            assert promote_check(t1_tiling(t), t, 1, k)
    for t in range(4, 13):
        assert verify_periodic(t3_tiling(t), SignalParams(t, 3)).ok


def test_c06_total_excess_per_domain_is_exactly_four():
    for t in range(4, 13):
        low = excess_report(t3_tiling(t), SignalParams(t, 3))
        assert low.broadcasting
        assert low.total_excess == 4
        promoted = excess_report(t1_tiling(t), SignalParams(t + 1, 3))
        assert promoted.broadcasting
        assert promoted.total_excess == 4


def test_c07_window_excess_at_least_four_and_random_probe_clean():
    for t in range(6, 13):
        assert window_excess(t3_tiling(t), SignalParams(t, 3), (0, 0), "E") >= 4

    # probe arbitrary broadcasting configurations the same way; every
    # window below 4 would be reported here as a falsification finding
    rng = random.Random(20260819)
    findings = []
    checked = 0
    for t in (5, 6, 7):
        params = SignalParams(t, 3)
        cap = 2 * t * t - 6 * t + 5
        found = 0
        tries = 0
        while found < 12 and tries < 20000:
            tries += 1
            a = (rng.randint(1, t), rng.randint(-(t - 1), t - 1))
            b = (rng.randint(-(t - 1), t - 1), rng.randint(1, t))
            noffs = rng.choice([1, 1, 2])
            offs = [(0, 0)]
            while len(offs) < noffs:
                cand = (rng.randint(0, t), rng.randint(0, t))
                if cand not in offs:
                    offs.append(cand)
            try:
                config = LatticeConfig(a, b, tuple(offs))
            except InputError:
                continue
            if not 2 <= config.index <= noffs * cap:
                continue
            if not verify_periodic(config, params).ok:
                continue
            found += 1
            checked += 1
            for off in config.offsets:
                for orientation in "ENWS":
                    value = window_excess(config, params, off, orientation)
                    if value < 4:
                        findings.append((t, a, b, tuple(offs), off, orientation, value))
    assert checked == 36
    assert findings == []


def test_c08_capacity_identity_and_attained_density():
    for t in range(4, 13):
        efficient = 2 * t * t - 6 * t + 5
        # one tower's capped signal over its diamond on the infinite grid
        capacity = sum(
            min(3, max(0, t - abs(dx) - abs(dy)))
            for dx in range(-t, t + 1)
            for dy in range(-t, t + 1)
        )
        # the (t, 3) pattern sells 3 per cell of its one-tower domain and
        # wastes the rest of that tower's capacity as excess
        config = t3_tiling(t)
        excess = excess_report(config, SignalParams(t, 3)).total_excess
        assert 3 * config.index + excess == capacity == 3 * efficient + 4
        # a configuration wasting exactly 4 per tower lands on that density
        assert density(t3_tiling(t)) == Fraction(1, efficient)


def test_c09_promotion_profile_reports_and_flags_the_discrepancy():
    frozen_totals = {1: 4, 2: 20, 3: 56}
    for t in range(5, 11):
        for k in range(1, 4):
            profile = promotion_excess_profile(t, k)
            assert len(profile.square) == (2 * k) ** 2
            assert profile.per_diagonal
            assert profile.square_excess_sum == frozen_totals[k]
            assert profile.domain_total_excess == frozen_totals[k]
            assert profile.all_excess_inside_square
            assert profile.claimed_total == Fraction(k * (k + 1) * (2 * k + 1), 6)
            assert not profile.matches_claimed  # the documented finding
            if k == 1:
                observed = [e for d in profile.per_diagonal for e in d.observed]
                assert sorted(observed) == [1, 1, 1, 1]


def test_c10_closed_form_distance_equals_bfs_exhaustively():
    def check(spec):
        for u in range(spec.num_vertices):
            row = bfs_distances_from(spec, u)
            for v in range(spec.num_vertices):
                assert distance(spec, u, v) == row[v], (spec, u, v)

    for n in range(1, 26):
        for k in range(1, n + 1):
            check(GraphSpec.path_power(n, k))
            check(GraphSpec.cycle_power(n, k))
    for rows in range(1, 15):
        for cols in range(1, 15):
            check(GraphSpec.grid(rows, cols))
            check(GraphSpec.torus(rows, cols))
    for n, k in [(50, 3), (101, 7), (200, 1), (200, 199), (173, 50)]:
        check(GraphSpec.path_power(n, k))
        check(GraphSpec.cycle_power(n, k))
    for rows, cols in [(1, 200), (2, 100), (4, 50), (10, 20)]:
        check(GraphSpec.grid(rows, cols))
        check(GraphSpec.torus(rows, cols))
