"""Exception types shared across the package."""
from __future__ import annotations


class ReslatError(Exception):
    """Base class for all package errors."""


class NotALattice(ReslatError):
    """The order data does not define a bounded lattice."""


class NotCommutativeMonoid(ReslatError):
    """The multiplication table is not a commutative monoid with unit 1."""


class NotResiduated(ReslatError):
    """Base for residuation failures."""


class AdjunctionFails(NotResiduated):
    """x*z <= y <=> z <= x->y fails at a specific triple."""

    def __init__(self, x: int, y: int, z: int, message: str = ""):
        self.x, self.y, self.z = x, y, z
        super().__init__(message or f"adjunction fails at (x={x}, y={y}, z={z})")


class NoResiduum(NotResiduated):
    """max{z : x*z <= y} does not exist for some pair."""

    def __init__(self, x: int, y: int, message: str = ""):
        self.x, self.y = x, y
        super().__init__(message or f"no residuum for (x={x}, y={y})")


class ResiduumMismatch(NotResiduated):
    """A supplied residuum table disagrees with the derived one."""


class CarrierTooLarge(ReslatError):
    """A requested carrier exceeds the configured size bound."""


class ImproperInput(ReslatError):
    """An operation received the improper filter, a filter outside the
    class it requires (for example a non-prime where a prime is needed), or
    a mask outside the carrier."""


class NotAFilter(ReslatError):
    """The given subset is not a filter."""


class NotAnIdeal(ReslatError):
    """The given subset is not a lattice ideal."""


class FormatError(ReslatError):
    """Malformed algebra file or algebra data; carries a line number when
    known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class UsageError(ReslatError):
    """Bad command-line invocation."""


class EquivalenceViolation(ReslatError):
    """Two routes that must agree disagreed; carries the evidence.

    This is the package's alarm bell: provably equivalent characterizations
    are always computed independently and compared, and any mismatch means a
    bug (or a genuinely false theorem), never a condition to silence.
    """

    def __init__(self, message: str, detail: object = None):
        self.detail = detail
        super().__init__(message)


def agree(a, message: str, routes: dict, *where: int):
    """The common value of the routes, a dict from route name to value.

    If any two differ, raise EquivalenceViolation(message) with detail
    (label, the subsets compared on, the routes). Nothing is formatted
    unless it raises, since the hottest routes are compared per subset."""
    values = iter(routes.values())
    first = next(values)
    for value in values:
        if value != first:
            raise EquivalenceViolation(
                message, detail=(a.label, *(a.set_repr(m) for m in where), routes)
            )
    return first


def hold(a, tag: str, laws: dict[str, bool]) -> dict[str, bool]:
    """The results of a law suite, if every law holds; otherwise raise
    EquivalenceViolation("<tag> laws fail") with detail (label, failing laws)."""
    failing = tuple(name for name, ok in laws.items() if not ok)
    if failing:
        raise EquivalenceViolation(f"{tag} laws fail", detail=(a.label, failing))
    return laws
