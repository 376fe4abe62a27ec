"""Exception types shared across the package."""
from __future__ import annotations


class RegopenError(Exception):
    """Base class for all domain errors raised by this package."""


class SpaceMismatch(RegopenError):
    """Two operands live over different spaces."""


class EmptySubspace(RegopenError):
    """Attempted to build a subspace from the empty set."""


class NotClosed(RegopenError):
    """Subspace construction requires a closed set."""


class UnboundName(RegopenError):
    """A term or expression referenced a name with no binding."""


class NotSingleton(RegopenError):
    """A filter intersection that must be a single point was not."""


class Discontinuity(RegopenError):
    """A piecewise map has mismatched values at a shared breakpoint."""

    def __init__(self, location, message: str = ""):
        self.location = location
        super().__init__(message or f"discontinuity at {location}")


class ImageEscapesCodomain(RegopenError):
    """A piece's value set leaves the codomain."""

    def __init__(self, location, message: str = ""):
        self.location = location  # a point, or a piece's (lo, hi) source span
        where = f"[{location[0]}, {location[1]}]" if isinstance(location, tuple) else location
        super().__init__(message or f"image escapes codomain at {where}")


class NotSurjective(RegopenError):
    """An operation requires a surjective map."""


class NotIrreducible(RegopenError):
    """An operation requires an irreducible map."""


class NonDyadicEndpoint(RegopenError):
    """The Cantor bridge only accepts regions with dyadic endpoints."""


class DomainMismatch(RegopenError):
    """Two covers that must share a common domain do not."""


class EmptyDescriptor(RegopenError):
    """A space descriptor must list at least one component."""


class ExprSyntaxError(RegopenError):
    """Parse failure, carrying position and the expected token set."""

    def __init__(self, line: int, col: int, expected: tuple[str, ...], found: str = ""):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        self.found = found
        what = ", ".join(expected)
        super().__init__(f"line {line}, col {col}: expected {what}" + (f", found {found!r}" if found else ""))
