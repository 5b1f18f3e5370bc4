"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: input validation -> 2,
resource caps -> 3, violated mathematical preconditions -> 4.
"""

from __future__ import annotations


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
