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
from dataclasses import dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class Caps:
    states: int = 1_000_000
    cycles: int = 100_000
    rays: int = 100_000
    words: int = 1_000_000
    elements: int = 1_000_000
    roots: int = 100_000

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
