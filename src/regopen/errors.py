"""Exception types and the frozen value-class base shared across the package."""
from __future__ import annotations

from operator import attrgetter


class _Value:
    """A frozen value class.  Its fields are its own annotations, in order, with
    class attributes as defaults; equality and hash are those of the field
    tuple, within one class, and the repr is `Class(field=value, ...)`."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__fields = tuple(cls.__dict__.get("__annotations__", ()))
        slots = cls.__dict__.get("__slots__", ())  # a slot's descriptor is no default
        cls.__defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__ and f not in slots}
        get = attrgetter(*fields)
        cls.__key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))  # always a tuple

    def __init__(self, *args, **kwargs):
        fields = self.__fields
        if kwargs or len(args) != len(fields):
            values = {**self.__defaults, **kwargs, **dict(zip(fields, args))}
            if len(args) > len(fields) or len(values) < len(fields) or kwargs.keys() - set(fields[len(args):]):
                raise TypeError(f"{type(self).__qualname__} takes {fields}, got {args!r} and {kwargs!r}")
            args = [values[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """A subclass checks and coerces its fields here, setting them with `object.__setattr__`."""

    @classmethod
    def _trusted(cls, *values):
        """An instance of fields the library built valid: no coercion, no `__post_init__`."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__fields, values):
            object.__setattr__(obj, name, value)
        return obj

    def to_json(self) -> dict:
        """Each field through `jsonio.encode_value`, in order, then each property
        its class defines: a report's verdict, a component's kind."""
        from .jsonio import encode_value
        out = {name: encode_value(value) for name, value in zip(self.__fields, self.__key(self))}
        for name, attr in vars(type(self)).items():
            if isinstance(attr, property):
                out[name] = encode_value(getattr(self, name))
        return out

    def __eq__(self, other):
        if self is other:  # exact: no field of a value class is a float or other non-reflexive value
            return True
        return self.__key(self) == self.__key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.__key(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__fields, self.__key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


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


class Discontinuity(RegopenError):
    """A piecewise map has mismatched values at a shared breakpoint."""

    def __init__(self, location):
        self.location = location
        super().__init__(f"discontinuity at {location}")


class ImageEscapesCodomain(RegopenError):
    """A piece's value set leaves the codomain."""

    def __init__(self, location):
        self.location = location  # a point, or a piece's (lo, hi) source span
        where = f"[{location[0]}, {location[1]}]" if isinstance(location, tuple) else location
        super().__init__(f"image escapes codomain at {where}")


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
