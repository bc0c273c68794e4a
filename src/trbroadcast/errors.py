"""Shared exception types and the one bound on work the library builds."""

from collections.abc import Callable

# Most entries one structure may hold: solve's cover table (torus:41x41
# at t = 21 fits), the lattice field's cells and stamps (t3_tiling(t) up
# to t = 1,448) and the audit's one signal per vertex.
MAX_ENTRIES = 1 << 22


class InputError(ValueError):
    """An argument violates an operation's contract.

    The command-line layer maps this to exit code 2.
    """


def check_entries(count: int, what: Callable[[], str]) -> None:
    """Refuse count > MAX_ENTRIES; what() names the work, called only then."""
    if count > MAX_ENTRIES:
        raise InputError(f"{what()}, over the limit of {MAX_ENTRIES}")
