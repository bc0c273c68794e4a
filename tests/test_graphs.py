"""Distance oracles, balls, and the textual graph encoding."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trbroadcast import (
    Family,
    GraphSpec,
    InputError,
    SignalParams,
    ball,
    bfs_distances_from,
    distance,
    format_graph_spec,
    near,
    neighbors,
    parse_graph_spec,
    solve,
)
from trbroadcast.graphs import reflection_orbits


def test_path_power_distance_examples():
    spec = GraphSpec.path_power(10, 3)
    assert distance(spec, 0, 7) == 3
    assert distance(spec, 0, 0) == 0
    assert distance(spec, 2, 5) == 1
    assert distance(spec, 0, 9) == 3


def test_cycle_power_wraps_to_shorter_arc():
    spec = GraphSpec.cycle_power(12, 3)
    assert distance(spec, 0, 11) == 1
    assert distance(spec, 0, 6) == 2
    assert distance(spec, 1, 11) == 1


def test_grid_and_torus_distances():
    grid = GraphSpec.grid(3, 3)
    assert distance(grid, 0, 8) == 4  # opposite corners
    torus = GraphSpec.torus(5, 5)
    assert distance(torus, 0, 24) == 2  # corners wrap to (1,1) apart
    assert distance(torus, 0, 4) == 1


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec.path_power(7, 2),
        GraphSpec.cycle_power(9, 1),
        GraphSpec.grid(2, 4),
        GraphSpec.torus(3, 4),
    ],
)
def test_distance_is_zero_only_on_the_diagonal(spec):
    nv = spec.num_vertices
    for u in range(nv):
        for v in range(nv):
            assert (distance(spec, u, v) == 0) == (u == v)


def test_ball_examples():
    assert ball(GraphSpec.path_power(10, 1), 0, 2) == [0, 1, 2]
    assert ball(GraphSpec.path_power(10, 3), 5, 1) == [2, 3, 4, 5, 6, 7, 8]
    assert ball(GraphSpec.torus(5, 5), 0, 1) == [0, 1, 4, 5, 20]
    assert ball(GraphSpec.cycle_power(12, 3), 0, 0) == [0]


# Clipped and wrapped axes of every shape: 1 x m and m x 1 sides, rows !=
# cols, cycles with n <= 2k + 1 (complete) and n in {1, 2}.
KERNEL_SPECS = [
    GraphSpec.path_power(11, 2), GraphSpec.path_power(1, 1), GraphSpec.path_power(6, 7),
    GraphSpec.cycle_power(10, 2), GraphSpec.cycle_power(1, 1), GraphSpec.cycle_power(2, 1),
    GraphSpec.cycle_power(2, 3), GraphSpec.cycle_power(5, 2), GraphSpec.cycle_power(4, 2),
    GraphSpec.cycle_power(7, 3), GraphSpec.cycle_power(13, 3),
    GraphSpec.grid(3, 4), GraphSpec.grid(1, 1), GraphSpec.grid(1, 6), GraphSpec.grid(6, 1),
    GraphSpec.grid(4, 7),
    GraphSpec.torus(4, 4), GraphSpec.torus(1, 1), GraphSpec.torus(1, 6), GraphSpec.torus(6, 1),
    GraphSpec.torus(2, 2), GraphSpec.torus(3, 5), GraphSpec.torus(5, 8),
]


def test_ball_matches_distance_definition():
    # near() and ball() against the per-pair definition, radius 0 up to
    # one past the diameter.
    for spec in KERNEL_SPECS:
        nv = spec.num_vertices
        rows = [[distance(spec, v, u) for u in range(nv)] for v in range(nv)]
        diameter = max(max(row) for row in rows)
        for v in range(nv):
            for radius in range(diameter + 2):
                expected = [(u, d) for u, d in enumerate(rows[v]) if d <= radius]
                assert near(spec, v, radius) == expected, (spec, v, radius)
                assert ball(spec, v, radius) == [u for u, _ in expected]


def test_neighbors_are_distance_one():
    for spec in (GraphSpec.path_power(8, 3), GraphSpec.cycle_power(8, 2),
                 GraphSpec.grid(3, 3), GraphSpec.torus(3, 3)):
        for v in range(spec.num_vertices):
            expected = [u for u in range(spec.num_vertices)
                        if u != v and distance(spec, u, v) == 1]
            assert neighbors(spec, v) == expected


def test_bfs_agrees_on_small_specs():
    # exhaustive sweep lives in the acceptance suite; this is the smoke version
    specs = [GraphSpec.path_power(9, 2), GraphSpec.cycle_power(11, 3),
             GraphSpec.grid(4, 5), GraphSpec.torus(4, 6)]
    for spec in specs:
        for u in range(spec.num_vertices):
            row = bfs_distances_from(spec, u)
            for v in range(spec.num_vertices):
                assert row[v] == distance(spec, u, v)
    assert bfs_distances_from(GraphSpec.path_power(2, 1), 0) == [0, 1]


@pytest.mark.parametrize("spec", [
    GraphSpec.path_power(1, 1), GraphSpec.path_power(8, 1), GraphSpec.path_power(9, 3),
    GraphSpec.cycle_power(9, 2), GraphSpec.grid(1, 4), GraphSpec.grid(3, 5),
    GraphSpec.grid(4, 4), GraphSpec.grid(5, 5), GraphSpec.torus(3, 4), GraphSpec.torus(4, 4),
])
def test_reflections_preserve_distance(spec):
    # the flips, built here from coordinates: the reversal of a path or
    # cycle power; the row flip, the column flip and, on a square, the
    # transpose of a grid or torus
    nv = spec.num_vertices
    if spec.family in (Family.PATH, Family.CYCLE):
        perms = [[nv - 1 - v for v in range(nv)]]
    else:
        rows, cols = spec.rows, spec.cols
        cells = [divmod(v, cols) for v in range(nv)]
        perms = [[(rows - 1 - y) * cols + x for y, x in cells],
                 [y * cols + cols - 1 - x for y, x in cells]]
        if rows == cols:
            perms.append([x * cols + y for y, x in cells])
    for perm in perms:
        assert sorted(perm) == list(range(nv))
        for u in range(nv):
            for v in range(nv):
                assert distance(spec, perm[u], perm[v]) == distance(spec, u, v)
    # the orbit map is their closure, numbered by each orbit's least vertex
    orbit = [-1] * nv
    count = 0
    for v in range(nv):
        if orbit[v] < 0:
            orbit[v] = count
            stack = [v]
            while stack:
                x = stack.pop()
                for perm in perms:
                    if orbit[perm[x]] < 0:
                        orbit[perm[x]] = count
                        stack.append(perm[x])
            count += 1
    assert reflection_orbits(spec) == orbit


def test_cycle_power_is_complete_when_n_small():
    # n <= 2k+1 collapses every pair to distance 1
    for n, k in [(5, 2), (7, 3), (3, 1), (6, 3)]:
        spec = GraphSpec.cycle_power(n, k)
        for u in range(n):
            for v in range(n):
                if u != v:
                    assert distance(spec, u, v) == 1


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n=st.integers(2, 24),
    k=st.integers(1, 5),
    data=st.data(),
)
def test_distance_symmetry_and_triangle(n, k, data):
    fam = data.draw(st.sampled_from([Family.PATH, Family.CYCLE]))
    spec = GraphSpec(fam, n=n, k=k)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    w = data.draw(st.integers(0, n - 1))
    assert distance(spec, u, v) == distance(spec, v, u)
    assert distance(spec, u, w) <= distance(spec, u, v) + distance(spec, v, w)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rows=st.integers(1, 7), cols=st.integers(1, 7), data=st.data())
def test_torus_distance_symmetry_and_triangle(rows, cols, data):
    spec = GraphSpec.torus(rows, cols)
    nv = spec.num_vertices
    u = data.draw(st.integers(0, nv - 1))
    v = data.draw(st.integers(0, nv - 1))
    w = data.draw(st.integers(0, nv - 1))
    assert distance(spec, u, v) == distance(spec, v, u)
    assert distance(spec, u, w) <= distance(spec, u, v) + distance(spec, v, w)


def test_format_parse_round_trip():
    for spec in (GraphSpec.path_power(10, 2), GraphSpec.cycle_power(12, 3),
                 GraphSpec.grid(4, 6), GraphSpec.torus(41, 41)):
        assert parse_graph_spec(format_graph_spec(spec)) == spec


def test_parse_accepts_default_k_and_case():
    assert parse_graph_spec("path:n=10") == GraphSpec.path_power(10, 1)
    assert parse_graph_spec("PATH:n=3,k=2") == GraphSpec.path_power(3, 2)
    assert parse_graph_spec(" cycle:n=5,k=2 ") == GraphSpec.cycle_power(5, 2)


@pytest.mark.parametrize(
    "text",
    [
        "path",                 # no colon
        "path:",                # empty body
        "blah:n=1",             # unknown family
        "path:k=2",             # missing n
        "path:n=2,n=3",         # duplicate field
        "path:n=two",           # not an integer
        "path:n=0",             # out of range
        "grid:4x6,k=2",         # grid takes no power
        "grid:4x",              # malformed shape
        "torus:0x5",            # zero side
        "grid:rows=4,cols=6",   # wrong grammar
    ],
)
def test_parse_rejects_malformed_specs(text):
    with pytest.raises(InputError):
        parse_graph_spec(text)


def test_spec_validation():
    with pytest.raises(InputError):
        GraphSpec.path_power(0, 1)
    with pytest.raises(InputError):
        GraphSpec.path_power(5, 0)
    with pytest.raises(InputError):
        GraphSpec.grid(0, 3)
    with pytest.raises(InputError):
        GraphSpec(Family.GRID, n=5, rows=2, cols=2)
    with pytest.raises(InputError):
        GraphSpec(Family.TORUS, k=2, rows=2, cols=2)
    with pytest.raises(InputError):
        GraphSpec(Family.PATH, n=4, rows=1)
    # A family's text value is not a family: no string is coerced.
    with pytest.raises(InputError, match=r"^graph family must be a Family, got 'cycle'$"):
        GraphSpec("cycle", n=10)
    with pytest.raises(InputError, match=r"^graph family must be a Family, got 'hex'$"):
        GraphSpec("hex", rows=2, cols=2)
    # Sizes must be ints: not floats, which later fail with TypeError, nor bools.
    with pytest.raises(InputError, match=r"^graph n must be an integer, got 4\.5$"):
        GraphSpec.path_power(4.5)
    with pytest.raises(InputError, match=r"^graph k must be an integer, got 2\.0$"):
        GraphSpec.cycle_power(5, 2.0)
    with pytest.raises(InputError, match=r"^graph cols must be an integer, got 2\.0$"):
        GraphSpec.grid(2, 2.0)
    with pytest.raises(InputError, match=r"^graph rows must be an integer, got True$"):
        GraphSpec.torus(True, 3)


def test_the_stored_box_is_invisible():
    grid, path = GraphSpec.grid(3, 4), GraphSpec.path_power(7, 2)
    assert repr(grid) == "GraphSpec(family=<Family.GRID: 'grid'>, n=0, k=1, rows=3, cols=4)"
    assert repr(path) == "GraphSpec(family=<Family.PATH: 'path'>, n=7, k=2, rows=0, cols=0)"
    twin = parse_graph_spec("path:n=7,k=2")
    assert twin == path and hash(twin) == hash(path)
    assert dataclasses.asdict(grid) == {"family": Family.GRID, "n": 0, "k": 1, "rows": 3, "cols": 4}
    # replace() builds anew, so the new size gets its own box.
    longer = dataclasses.replace(path, n=9)
    fresh = GraphSpec.path_power(9, 2)
    assert longer.num_vertices == 9
    for v in range(9):
        for radius in range(6):
            assert near(longer, v, radius) == near(fresh, v, radius)


@pytest.mark.parametrize("n", range(1, 13))
def test_one_row_specs_behave_like_their_one_dimensional_twins(n):
    for line, row in ((GraphSpec.path_power(n), GraphSpec.grid(1, n)),
                      (GraphSpec.cycle_power(n), GraphSpec.torus(1, n))):
        assert line.num_vertices == row.num_vertices == n
        assert reflection_orbits(line) == reflection_orbits(row)
        for u in range(n):
            for radius in range(n + 1):
                assert near(line, u, radius) == near(row, u, radius)
            for v in range(n):
                assert distance(line, u, v) == distance(row, u, v)
        for t in range(1, 5):
            for r in range(1, t + 1):
                a, b = solve(line, SignalParams(t, r)), solve(row, SignalParams(t, r))
                assert (a.gamma, a.witness.vertices, a.nodes_explored, a.lower_bound) == \
                    (b.gamma, b.witness.vertices, b.nodes_explored, b.lower_bound)


def test_vertex_range_checks():
    spec = GraphSpec.path_power(5, 1)
    with pytest.raises(InputError):
        distance(spec, 0, 5)
    with pytest.raises(InputError):
        distance(spec, -1, 0)
    with pytest.raises(InputError):
        ball(spec, 5, 1)
    with pytest.raises(InputError):
        ball(spec, 0, -1)
    with pytest.raises(InputError):
        near(spec, 5, 1)
    with pytest.raises(InputError):
        near(spec, 0, -1)
    with pytest.raises(InputError):
        bfs_distances_from(spec, 9)
