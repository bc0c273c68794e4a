"""Periodic tower configurations of the integer grid.

A configuration is a rank-2 integer lattice plus tower offsets, one set
per fundamental domain. Everything here is exact: coordinates are
integers, coefficients are rationals, densities and averages are
fractions. Verifying one full set of coset representatives certifies
the entire grid by periodicity. A cell modulo the lattice has one
name, its representative in fundamental_domain: reduce_point returns
it, verify_periodic's witness and excess_report's per_vertex keys use it.
Inside this module a cell is its position in that list. A configuration
computes its Hermite normal form (_fold) once, when it is built, and
_cell, which reads it, is the one reduction of a point modulo the lattice.

Geometry conventions: distance is the Manhattan (ell-1) metric, and a
tower at u delivers max(0, t - |u - v|_1) to the cell v. One field of
sums capped at r per tower serves every audit. It drives the excess
accounting and also decides broadcasting: a cell whose raw sum is below
r hears every tower below r, so no cap applies there and its capped sum
is its raw sum. The field is a flat list over the transversal of
fundamental_domain, stamped as 2t - 1 row slices per tower offset: the
Hermite normal form of the lattice (see _fold) sends each row of a
diamond onto one cyclic row of the transversal. Its size and its work,
|det| cells and offsets x (2t^2 - 2t + 1) stamps, are each bounded by
errors.MAX_ENTRIES.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, check_entries
from .signal import SignalParams

Vec = tuple[int, int]

# Window orientations: the unit step u from the tower towards its window.
# N/W/S are the successive quarter turns of E.
_WINDOW_FRAMES = {"E": (1, 0), "N": (0, 1), "W": (-1, 0), "S": (0, -1)}


def _is_int_pair(value) -> bool:
    """Whether value holds exactly two ints (not bools); a value with no
    length, such as a bare int, holds none."""
    try:
        return len(value) == 2 and all(type(c) is int for c in value)
    except TypeError:
        return False


@dataclass(frozen=True)
class LatticeConfig:
    """Integer lattice spanned by a and b, plus tower offsets.

    The towers are {m*a + n*b + o : m, n integers, o in offsets}. The
    basis must be nondegenerate and the offsets pairwise distinct
    modulo the lattice, so every fundamental domain holds exactly
    len(offsets) towers.
    """

    a: Vec
    b: Vec
    offsets: tuple[Vec, ...] = ((0, 0),)

    def __post_init__(self) -> None:
        for name, vec in (("a", self.a), ("b", self.b)):
            if not _is_int_pair(vec):
                raise InputError(f"basis vector {name} must be an integer pair")
        if self.det == 0:
            raise InputError("basis vectors must be linearly independent")
        if not self.offsets:
            raise InputError("need at least one tower offset")
        # Not a field: repr, equality, hashing and asdict never see it.
        object.__setattr__(self, "_hermite", _fold(self))
        seen = set()
        for o in self.offsets:
            if not _is_int_pair(o):
                raise InputError("offsets must be integer pairs")
            cell = _cell(self, o)
            if cell in seen:
                raise InputError(f"offset {o} duplicates another offset modulo the lattice")
            seen.add(cell)

    @property
    def det(self) -> int:
        return self.a[0] * self.b[1] - self.a[1] * self.b[0]

    @property
    def index(self) -> int:
        """Cells per fundamental domain: |det(a, b)|."""
        return abs(self.det)

    def to_json_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "offsets": [list(o) for o in self.offsets],
        }


def config_from_json_dict(data: dict) -> LatticeConfig:
    """Rebuild a configuration from {"a": [x,y], "b": [x,y], "offsets": [[x,y],...]}."""
    if not isinstance(data, dict):
        raise InputError("lattice config must be a JSON object")
    try:
        a = tuple(data["a"])
        b = tuple(data["b"])
        offsets = tuple(tuple(o) for o in data["offsets"])
    except (KeyError, TypeError):
        raise InputError("lattice config needs integer keys 'a', 'b', 'offsets'") from None
    return LatticeConfig(a, b, offsets)


def reduce_point(config: LatticeConfig, v: Vec) -> Vec:
    """The cell of fundamental_domain congruent to v (see _cell)."""
    y, x = divmod(_cell(config, v), config._hermite[0])
    return (x, y)


def density(config: LatticeConfig) -> Fraction:
    """Towers per cell, exact: len(offsets) / |det|."""
    return Fraction(len(config.offsets), config.index)


def axis_periods(config: LatticeConfig) -> tuple[int, int]:
    """Minimal horizontal and vertical periods of the configuration.

    Both come from the Hermite basis (p1, 0), (j, s) of _fold. The
    x-axis period is p1. A lattice point m*(p1, 0) + n*(j, s) lies on
    the y-axis when p1 divides n*j, so the least such n is
    p1 / gcd(p1, j) and the y-axis period is |det| / gcd(p1, j).
    """
    p1, _, j = config._hermite
    return (p1, config.index // math.gcd(p1, j))


def fundamental_domain(config: LatticeConfig) -> list[Vec]:
    """Exactly index-many cells, pairwise distinct modulo the lattice.

    Uses the triangular transversal {(x, y) : 0 <= x < p1, 0 <= y < s}
    of the Hermite normal form (see _fold).
    """
    p1, s, _ = config._hermite
    return [(x, y) for y in range(s) for x in range(p1)]


def _fold(config: LatticeConfig) -> tuple[int, int, int]:
    """Hermite normal form of the lattice: (p1, s, j), with 0 <= j < p1.

    The lattice is spanned by (p1, 0) and (j, s). s = gcd(a_y, b_y) is
    the least positive y of a lattice point, and one extended gcd
    writes it as u*a_y + v*b_y, so u*a + v*b = (j mod p1, s). The
    lattice points on the x-axis are the multiples of (p1, 0), with
    p1 = |det| / s the x-axis period.
    """
    (ax, ay), (bx, by) = config.a, config.b
    g, g_next, u, u_next, v, v_next = ay, by, 1, 0, 0, 1
    while g_next:
        q = g // g_next
        g, g_next = g_next, g - q * g_next
        u, u_next = u_next, u - q * u_next
        v, v_next = v_next, v - q * v_next
    if g < 0:
        g, u, v = -g, -u, -v
    p1 = config.index // g
    return p1, g, (u * ax + v * bx) % p1


def _cell(config: LatticeConfig, point: Vec) -> int:
    """Position of point's cell in fundamental_domain order.

    The one reduction modulo the lattice, by the Hermite form (p1, s, j)
    that config computed when it was built (see _fold). Subtracting
    q*(j, s) brings y into [0, s), and x then reduces modulo p1.
    """
    p1, s, j = config._hermite
    q, y = divmod(point[1], s)
    return y * p1 + (point[0] - q * j) % p1


def _signal_field(config: LatticeConfig, params: SignalParams) -> list[int]:
    """Capped signal of every cell, in fundamental_domain order.

    The transversal is s rows of p1 cells, by the Hermite form the
    configuration computed once (see _fold). One row of a tower's
    radius t - 1 diamond, at height dy with h = t - |dy|, lands on one
    cyclic transversal row: each of the 2t - 1 rows of each offset
    reduces its left end with _cell, the one reduction modulo the
    lattice, and adds its capped tent min(r, h - |dx|) as at most
    ceil((2h - 1)/p1) + 1 slices. A row wider than p1 wraps and adds
    onto the same cell once per translate it covers. The field decides
    broadcasting as well as excess: a value below r is the cell's raw
    sum, and a value of at least r means the raw sum is too. The
    slices add offsets x (2t^2 - 2t + 1) stamps to a flat list of
    |det| cells, whatever the caller reads afterwards and however small
    the domain: there is no early exit. A domain of more than
    errors.MAX_ENTRIES cells, or a field of more stamps than that, is
    refused before anything is allocated, cells checked first.
    """
    cells = config.index
    check_entries(cells, lambda: f"fundamental domain has |det| = {cells} cells")
    t, r = params.t, params.r
    stamps = len(config.offsets) * (2 * t * t - 2 * t + 1)
    check_entries(stamps, lambda: f"signal field at t = {t} needs {stamps} stamps, "
                  "offsets x (2t^2 - 2t + 1)")
    p1 = config._hermite[0]
    up = [min(r, i) for i in range(1, t + 1)]
    down = up[::-1]
    field = [0] * cells
    for ox, oy in config.offsets:
        for dy in range(1 - t, t):
            h = t - abs(dy)
            tent = up[:h] + down[t - h + 1:]
            a = _cell(config, (ox - h + 1, oy + dy))
            row = a - a % p1
            k = 0
            while k < len(tent):
                c = min(len(tent) - k, row + p1 - a)
                field[a:a + c] = map(operator.add, field[a:a + c], tent[k:k + c])
                k += c
                a = row
    return field


def excess_at(config: LatticeConfig, params: SignalParams, point: Vec) -> int:
    """Capped signal minus demand at one cell (negative when deficient).

    Builds the whole field, 2t - 1 row slices per offset on a flat list
    of |det| cells, to read one position of it.
    """
    return _signal_field(config, params)[_cell(config, point)] - params.r


@dataclass(frozen=True)
class PeriodicCheck:
    """Outcome of a periodic broadcast verification.

    A failing check carries the first deficient representative (in
    transversal order) and its signal, raw and capped alike below r.
    """

    ok: bool
    witness: Vec | None = None
    signal: int | None = None


def verify_periodic(config: LatticeConfig, params: SignalParams) -> PeriodicCheck:
    """Certify that every grid cell collects raw signal at least r.

    Checking the finitely many coset representatives suffices: the
    signal field is invariant under lattice translations. Reads the
    capped field, which falls below r exactly where the raw sum does
    and equals it there (see _signal_field). The whole field is stamped
    first (2t - 1 row slices per offset), so a failing cell early in
    transversal order costs as much as a passing domain. The witness is
    the list position i as the cell (i mod p1, i div p1).
    """
    field = _signal_field(config, params)
    r = params.r
    for i, signal in enumerate(field):
        if signal < r:
            p1 = config._hermite[0]
            return PeriodicCheck(False, (i % p1, i // p1), signal)
    return PeriodicCheck(True)


@dataclass(frozen=True)
class ExcessReport:
    """Per-domain excess accounting for a periodic configuration.

    per_vertex maps each cell of fundamental_domain, in its order, to
    (capped_signal, excess). Totals are per fundamental domain; the
    average divides by towers_per_domain and stays an exact fraction.
    Plain data: the CLI's `lattice excess` builds its JSON payload and
    CSV rows from these fields.
    """

    params: SignalParams
    period: tuple[int, int]
    per_vertex: dict[Vec, tuple[int, int]]
    total_excess: int
    towers_per_domain: int
    avg_excess_per_tower: Fraction
    broadcasting: bool


def excess_report(config: LatticeConfig, params: SignalParams) -> ExcessReport:
    """Audit one fundamental domain cell by cell.

    Reports capped signal and excess for every cell of
    fundamental_domain, in its order, the domain total, and the exact
    per-tower average. A configuration that fails to broadcast is still
    reported, flagged by the broadcasting field: its deficient cells
    carry negative excess, and the first of them is verify_periodic's
    witness.
    """
    r = params.r
    field = _signal_field(config, params)
    total = sum(field) - r * len(field)
    return ExcessReport(
        params=params,
        period=axis_periods(config),
        per_vertex={cell: (c, c - r) for cell, c in zip(fundamental_domain(config), field)},
        total_excess=total,
        towers_per_domain=len(config.offsets),
        avg_excess_per_tower=Fraction(total, len(config.offsets)),
        broadcasting=min(field) >= r,
    )


def window_excess(
    config: LatticeConfig, params: SignalParams, tower: Vec, orientation: str = "E"
) -> int:
    """Excess summed over the 7x9 audit window beside one tower.

    Orientation E spans tower + [t-4, t+2] x [-4, 4]; N, W, S are the
    quarter turns of that rectangle about the tower, so each window
    cell is tower + dx*u + dy*u' for (dx, dy) in the E rectangle, with
    u the orientation's unit step and u' its quarter turn. Needs t >= 5
    so the window sits cleanly ahead of the tower. Builds the one
    capped field and reads its 63 cells from it by list position, so
    every call pays 2t - 1 row slices per offset on a flat list of
    |det| cells however small the window; cells congruent modulo the
    lattice each count.
    """
    t = params.t
    if t < 5:
        raise InputError(f"window audit needs t >= 5, got t={t}")
    if orientation not in _WINDOW_FRAMES:
        raise InputError(
            f"orientation must be one of {tuple(_WINDOW_FRAMES)}, got {orientation!r}"
        )
    if not _is_int_pair(tower):
        raise InputError(f"tower must be an integer pair, got {tower!r}")
    offset_cells = {_cell(config, o) for o in config.offsets}
    if _cell(config, tower) not in offset_cells:
        raise InputError(f"{tower} is not a tower of this configuration")
    ux, uy = _WINDOW_FRAMES[orientation]
    field = _signal_field(config, params)
    tx, ty = tower
    return sum(
        field[_cell(config, (tx + dx * ux - dy * uy, ty + dx * uy + dy * ux))] - params.r
        for dx in range(t - 4, t + 3)
        for dy in range(-4, 5)
    )


def promote_check(config: LatticeConfig, t: int, base_r: int, k: int) -> bool:
    """Does a (t, base_r) configuration still broadcast at (t+k, base_r+2k)?

    base_r must be 1 or 2, the demands for which raising the strength
    by k buys 2k extra demand everywhere. The configuration must
    actually broadcast at the base parameters; k = 0 is the identity.
    """
    if base_r not in (1, 2):
        raise InputError(f"promotion is defined for base demand 1 or 2, got {base_r}")
    if k < 0:
        raise InputError(f"need k >= 0, got {k}")
    base = verify_periodic(config, SignalParams(t, base_r))
    if not base.ok:
        raise InputError(
            f"configuration does not broadcast at (t={t}, r={base_r}); "
            f"cell {base.witness} collects {base.signal}"
        )
    return verify_periodic(config, SignalParams(t + k, base_r + 2 * k)).ok


def t1_tiling(t: int) -> LatticeConfig:
    """Perfect single-cover configuration for demand 1 at strength t.

    One tower per |det| = t^2 + (t-1)^2 cells, basis (t-1, t) and
    (t, 1-t): every cell is within t - 1 of exactly one tower.
    """
    if t < 2:
        raise InputError(f"need t >= 2, got {t}")
    return LatticeConfig(a=(t - 1, t), b=(t, 1 - t))


def t3_tiling(t: int) -> LatticeConfig:
    """Low-excess configuration for demand 3 at strength t.

    One tower per |det| = (t-1)^2 + (t-2)^2 cells, basis (t-1, t-2) and
    (t-2, 1-t). Interior cells collect their full demand from one
    tower; boundary cells at distance t - 2 pick up the remainder from
    a neighboring tower.
    """
    if t < 3:
        raise InputError(f"need t >= 3, got {t}")
    return LatticeConfig(a=(t - 1, t - 2), b=(t - 2, 1 - t))


def centered_t1_frame(t: int) -> LatticeConfig:
    """Perfect single-cover configuration, framed around the origin.

    Mirror orientation of t1_tiling, translated so the origin sits in
    the middle of its four nearest towers (t-1, 0), (-1, -(t-1)),
    (-t, 1), and (0, t). This is the frame the promotion excess profile
    audits.
    """
    if t < 2:
        raise InputError(f"need t >= 2, got {t}")
    return LatticeConfig(a=(t, t - 1), b=(t - 1, -t), offsets=((t - 1, 0),))


@dataclass(frozen=True)
class DiagonalExcess:
    """Observed excesses along one diagonal x + y = diagonal of the square."""

    diagonal: int
    claimed: int
    observed: tuple[int, ...]


@dataclass(frozen=True)
class PromotionProfile:
    """Excess layout of the perfect single cover after a k-step promotion.

    Audits centered_t1_frame(t) at (t + k, 2k + 1) and reads the excess
    on the 2k x 2k square with corners (k-1, -(k-1)) and (-k, k),
    grouped by diagonal. claimed_* fields carry the closed forms the
    audit is checked against (2k - 2i - 1 per diagonal i and
    k(k+1)(2k+1)/6 in total); matches_claimed records whether the
    observed average agrees with the claimed total. Plain data: the
    CLI's `lattice profile` writes it as JSON, its fractions as strings.
    """

    t: int
    k: int
    audit_params: SignalParams
    square: tuple[Vec, ...]
    per_diagonal: tuple[DiagonalExcess, ...]
    square_excess_sum: int
    domain_total_excess: int
    average_per_tower: Fraction
    claimed_total: Fraction
    all_excess_inside_square: bool
    matches_claimed: bool


def promotion_excess_profile(t: int, k: int) -> PromotionProfile:
    """Audit where the promoted perfect cover accumulates its excess.

    Builds the centered perfect single cover for strength t, promotes
    the audit to (t + k, 2k + 1), and reports observed excess against
    the claimed per-diagonal and total closed forms. Discrepancies are
    reported, not adjudicated.
    """
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    if t <= k:
        raise InputError(f"need t > k, got t={t}, k={k}")
    config = centered_t1_frame(t)
    params = SignalParams(t + k, 2 * k + 1)
    report = excess_report(config, params)

    square = tuple((x, y) for y in range(-(k - 1), k + 1) for x in range(-k, k))
    cells = {pt: _cell(config, pt) for pt in square}
    excess = [e for _, e in report.per_vertex.values()]
    diagonals: dict[int, list[int]] = {}
    for (x, y), i in cells.items():
        diagonals.setdefault(x + y, []).append(excess[i])
    per_diagonal = tuple(
        DiagonalExcess(i, 2 * k - 2 * i - 1, tuple(sorted(vals)))
        for i, vals in sorted(diagonals.items())
    )

    positives = {i for i, e in enumerate(excess) if e > 0}
    claimed_total = Fraction(k * (k + 1) * (2 * k + 1), 6)
    return PromotionProfile(
        t=t,
        k=k,
        audit_params=params,
        square=square,
        per_diagonal=per_diagonal,
        square_excess_sum=sum(excess[i] for i in cells.values()),
        domain_total_excess=report.total_excess,
        average_per_tower=report.avg_excess_per_tower,
        claimed_total=claimed_total,
        all_excess_inside_square=positives <= set(cells.values()),
        matches_claimed=report.avg_excess_per_tower == claimed_total,
    )
