"""Exception hierarchy and the value-class base shared by all modules.

The CLI maps the exceptions onto its exit-code contract: input validation
-> 2, resource caps -> 3, violated mathematical preconditions -> 4.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the immutable value classes.

    A subclass annotates its fields (two or more), in order, and its
    `__init__` hands their values to `_init`.  Records of one class are equal
    when their fields are, hash as the field tuple and print as
    `Name(field=value, ...)`.  Fields cannot be assigned or deleted;
    `functools.cached_property` still works, as it writes to `__dict__`.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)  # a tuple, as there are two or more

    def _init(self, **values):
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class WeightcellError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(WeightcellError):
    """Malformed or inconsistent input (bad file, bad flag, bad matrix)."""

    exit_code = 2


class ResourceLimitError(WeightcellError):
    """A cap (states, cycles, rays, words, elements, roots, or the fixed
    sign precision bits) was hit."""

    exit_code = 3

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeded the cap of {cap}")
        self.what = what
        self.cap = cap


class PreconditionError(WeightcellError):
    """A documented mathematical precondition does not hold for the input."""

    exit_code = 4


class UnboundedError(PreconditionError):
    """The weight function is unbounded; carries a positive-weight circuit.

    `cycle` is the violating simple cycle (a weights.SimpleCycle) when the
    failure was detected on an automaton, and `word` its label sequence.
    """

    def __init__(self, message: str, cycle=None, word=None):
        super().__init__(message)
        self.cycle = cycle
        self.word = word
