"""Closed forms and explicit constructions for path and cycle powers.

The builders return certified tower sets of exactly the closed-form
size: each refuses n > errors.MAX_ENTRIES, computes its tower list
once, and one shared audit checks the size and the broadcasting
property before the set is returned. The closed forms take any n.

The cycle count is exact everywhere we have tested. The path count is
exact except on a handful of instances with r = t and k >= 2, where it
overshoots the true minimum by one; see gamma_path_power. The path
builder's tail rule is the stated one corrected at its upper edge; see
construct_path_towers.
"""

from __future__ import annotations

from .errors import InputError, check_entries
from .graphs import GraphSpec
from .signal import SignalParams, TowerSet, is_broadcasting


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


def _period(k: int, t: int, r: int) -> int:
    """Vertices one tower serves in a periodic run: (2t - r - 1)k + 1."""
    return (2 * t - r - 1) * k + 1


def _certified(spec: GraphSpec, towers: list[int], want: int, t: int, r: int) -> TowerSet:
    """The tower set, once it has the closed-form size and broadcasts."""
    result = TowerSet(spec, tuple(towers))
    if len(result.vertices) != want or not is_broadcasting(result, SignalParams(t, r)).ok:
        raise RuntimeError(
            f"{spec.family.value} construction failed its audit "
            f"for n={spec.n} k={spec.k} t={t} r={r}"
        )
    return result


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
    return _ceil_div(n + k * (r - 1), _period(k, t, r))


def gamma_cycle_power(n: int, k: int, t: int, r: int) -> int:
    """Minimum towers for the k-th power of the n-vertex cycle.

    One tower suffices while it alone meets the demand everywhere,
    two until the cycle outgrows a single period, then one tower per
    period of length (2t - r - 1)k + 1.
    """
    _validate(n, k, t, r)
    if n <= 2 * (t - r) * k + 1:
        return 1
    period = _period(k, t, r)
    if n <= period:
        return 2
    return _ceil_div(n, period)


def construct_path_towers(n: int, k: int, t: int, r: int) -> TowerSet:
    """Tower set of the closed-form size on the path power, audited
    before return (optimal except where gamma_path_power overshoots).

    Towers sit at indices congruent to lead = (t - r)k modulo the
    period (2t - r - 1)k + 1. The final vertex n - 1 is added unless
    the tail (n - 1) mod period lies in lead..2*lead. The stated window
    also admits 2*lead + 1, where the residue towers alone leave the
    end short; the builder uses the corrected window.
    """
    _validate(n, k, t, r)
    check_entries(n, lambda: f"construction on n = {n} vertices")
    period = _period(k, t, r)
    lead = (t - r) * k
    towers = list(range(lead, n, period))
    if not lead <= (n - 1) % period <= 2 * lead:
        towers.append(n - 1)
    return _certified(GraphSpec.path_power(n, k), towers, gamma_path_power(n, k, t, r), t, r)


def construct_cycle_towers(n: int, k: int, t: int, r: int) -> TowerSet:
    """Optimal tower set on the cycle power, audited before return.

    A single tower at 0, a balanced pair {0, n // 2}, or one tower per
    period around the cycle, matching the three regimes of the count.
    """
    _validate(n, k, t, r)
    check_entries(n, lambda: f"construction on n = {n} vertices")
    period = _period(k, t, r)
    if n <= 2 * (t - r) * k + 1:
        towers = [0]
    elif n <= period:
        towers = [0, n // 2]
    else:
        towers = list(range(0, n, period))
    return _certified(GraphSpec.cycle_power(n, k), towers, gamma_cycle_power(n, k, t, r), t, r)
