"""Closed forms and explicit constructions for path and cycle powers.

The builders return certified tower sets of exactly the closed-form
size. Every construction is audited before it is returned, and the one
known rough edge of the path tail rule is repaired on the spot (and
logged) when the audit catches it.

The cycle count is exact everywhere we have tested. The path count is
exact except on a handful of instances with r = t and k >= 2, where it
overshoots the true minimum by one; see gamma_path_power.
"""

from __future__ import annotations

import logging

from .errors import InputError
from .graphs import GraphSpec
from .signal import SignalParams, TowerSet, is_broadcasting

log = logging.getLogger(__name__)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _validate(n: int, k: int, t: int, r: int) -> None:
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    if r < 1:
        raise InputError(f"need r >= 1, got {r}")
    if t < r:
        raise InputError(f"need t >= r, got t={t}, r={r}")


def gamma_path_power(n: int, k: int, t: int, r: int) -> int:
    """Closed-form tower count for the k-th power of the n-vertex path.

    Known caveat: when r = t and k >= 2 the count can exceed the true
    minimum by one. The underlying argument pins a tower onto the
    first vertex, but two interior towers can cooperate to cover it
    (first case: n=7, k=2, t=r=3, where towers at 2 and 4 suffice).
    The exact solver is the authority on those instances; the sweep
    command reports every disagreement.
    """
    _validate(n, k, t, r)
    return _ceil_div(n + k * (r - 1), 2 * k * t - k * (r + 1) + 1)


def gamma_cycle_power(n: int, k: int, t: int, r: int) -> int:
    """Minimum towers for the k-th power of the n-vertex cycle.

    One tower suffices while it alone meets the demand everywhere,
    two until the cycle outgrows a single period, then one tower per
    period of length (2t - r - 1)k + 1.
    """
    _validate(n, k, t, r)
    if n <= 2 * (t - r) * k + 1:
        return 1
    period = (2 * t - r - 1) * k + 1
    if n <= period:
        return 2
    return _ceil_div(n, period)


def construct_path_towers(n: int, k: int, t: int, r: int) -> TowerSet:
    """Tower set of the closed-form size on the path power, audited
    before return (optimal except where gamma_path_power overshoots).

    Towers sit at indices congruent to (t - r)k modulo the period
    (2t - r - 1)k + 1; the final vertex is added when the tail would
    otherwise sit too far from the last tower. The stated tail window
    overreaches by one at its upper edge, so the audit repairs (and
    logs) that case by appending the final vertex.
    """
    _validate(n, k, t, r)
    spec = GraphSpec.path_power(n, k)
    params = SignalParams(t, r)
    want = gamma_path_power(n, k, t, r)
    period = (2 * t - r - 1) * k + 1
    lead = (t - r) * k

    base = list(range(lead, n, period))
    tail = (n - 1) % period
    towers = base if lead <= tail <= 2 * lead + 1 else sorted({*base, n - 1})
    candidate = TowerSet(spec, tuple(towers))
    if len(candidate.vertices) == want and is_broadcasting(candidate, params).ok:
        return candidate

    repaired = TowerSet(spec, tuple(sorted({*towers, n - 1})))
    if len(repaired.vertices) == want and is_broadcasting(repaired, params).ok:
        log.info(
            "path tail rule adjusted for n=%d k=%d t=%d r=%d: appended final vertex",
            n, k, t, r,
        )
        return repaired
    raise RuntimeError(
        f"path construction failed its audit for n={n} k={k} t={t} r={r}"
    )


def construct_cycle_towers(n: int, k: int, t: int, r: int) -> TowerSet:
    """Optimal tower set on the cycle power, audited before return.

    A single tower at 0, a balanced pair {0, n // 2}, or one tower per
    period around the cycle, matching the three regimes of the count.
    """
    _validate(n, k, t, r)
    spec = GraphSpec.cycle_power(n, k)
    params = SignalParams(t, r)
    want = gamma_cycle_power(n, k, t, r)
    period = (2 * t - r - 1) * k + 1

    if n <= 2 * (t - r) * k + 1:
        towers = [0]
    elif n <= period:
        towers = [0, n // 2]
    else:
        towers = list(range(0, n, period))
    result = TowerSet(spec, tuple(towers))
    if len(result.vertices) != want or not is_broadcasting(result, params).ok:
        raise RuntimeError(
            f"cycle construction failed its audit for n={n} k={k} t={t} r={r}"
        )
    return result
