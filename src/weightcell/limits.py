"""Default resource caps and the WEIGHTCELL_CAPS environment fallback.

Every potentially explosive operation takes an explicit cap argument whose
default comes from here.  Only the command line reads the environment
variable WEIGHTCELL_CAPS (a comma-separated list like
"states=500000,cycles=20000", parsed by `Caps.from_env`) and passes its
values to the library; CLI flags override it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import InputError

MAX_STATES = 1_000_000
MAX_CYCLES = 100_000
MAX_RAYS = 100_000
MAX_WORDS = 1_000_000
MAX_ELEMENTS = 1_000_000
MAX_ROOTS = 100_000


@dataclass(frozen=True)
class Caps:
    states: int = MAX_STATES
    cycles: int = MAX_CYCLES
    rays: int = MAX_RAYS
    words: int = MAX_WORDS
    elements: int = MAX_ELEMENTS
    roots: int = MAX_ROOTS

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise InputError(f"cap {f.name!r} must be positive")

    @classmethod
    def from_env(cls, env: str | None = None) -> "Caps":
        text = os.environ.get("WEIGHTCELL_CAPS", "") if env is None else env
        values = {}
        known = {f.name for f in fields(cls)}
        for item in filter(None, (part.strip() for part in text.split(","))):
            key, sep, raw = item.partition("=")
            if not sep or key.strip() not in known:
                raise InputError(f"bad WEIGHTCELL_CAPS entry {item!r}")
            try:
                values[key.strip()] = int(raw)
            except ValueError:
                raise InputError(f"bad WEIGHTCELL_CAPS value {raw!r}") from None
        return cls(**values)
