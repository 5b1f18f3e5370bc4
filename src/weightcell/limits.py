"""Resource caps, carried by one `Caps` value, and the WEIGHTCELL_CAPS
environment fallback.

Every potentially explosive library function takes one keyword argument,
`caps: Caps = Caps()`, and each enumerating loop reads its own field
(`caps.states`, `caps.cycles`, `caps.words`, ...), so a cap reaches every
layer by construction.  The field defaults are the library defaults.  Only
the command line reads the environment variable WEIGHTCELL_CAPS (a
comma-separated list like "states=500000,cycles=20000", parsed by
`Caps.from_env`); CLI flags override it.
"""

from __future__ import annotations

import os

from .errors import InputError, Record


class Caps(Record):
    states: int
    cycles: int
    rays: int
    words: int
    elements: int
    roots: int

    def __init__(self, states=10**6, cycles=10**5, rays=10**5, words=10**6, elements=10**6, roots=10**5):
        self._init(states=states, cycles=cycles, rays=rays, words=words, elements=elements, roots=roots)
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise InputError(f"cap {name!r} must be positive")

    @classmethod
    def from_env(cls, env: str | None = None) -> "Caps":
        text = os.environ.get("WEIGHTCELL_CAPS", "") if env is None else env
        values = {}
        for item in filter(None, (part.strip() for part in text.split(","))):
            key, sep, raw = item.partition("=")
            if not sep or key.strip() not in cls._fields:
                raise InputError(f"bad WEIGHTCELL_CAPS entry {item!r}")
            try:
                values[key.strip()] = int(raw)
            except ValueError:
                raise InputError(f"bad WEIGHTCELL_CAPS value {raw!r}") from None
        return cls(**values)
