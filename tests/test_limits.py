"""Cap configuration parsing, and the one-Caps-value design."""

import inspect

import pytest

from weightcell import automata, cones, coxeter, limits, weights
from weightcell.errors import InputError
from weightcell.limits import Caps


def test_defaults():
    caps = Caps()
    assert caps.states == 1_000_000
    assert caps.cycles == 100_000


def test_from_env_string():
    caps = Caps.from_env("states=500, cycles=7")
    assert caps.states == 500 and caps.cycles == 7
    assert caps.rays == Caps().rays


def test_from_env_empty():
    assert Caps.from_env("") == Caps()


def test_bad_entries():
    with pytest.raises(InputError):
        Caps.from_env("bogus=1")
    with pytest.raises(InputError):
        Caps.from_env("states=many")
    with pytest.raises(InputError):
        Caps(states=0)


def test_env_var(monkeypatch):
    monkeypatch.setenv("WEIGHTCELL_CAPS", "words=123")
    assert Caps.from_env().words == 123


def test_every_cap_is_one_caps_keyword():
    # A cap reaches every layer only if each enumerating function takes the
    # whole Caps value: no max_* integers, no module-level MAX_* constants.
    assert not [name for name in vars(limits) if name.startswith("MAX_")]
    capped = set()
    for module in (automata, cones, coxeter, weights):
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            where = f"{module.__name__}.{name}"
            for p in inspect.signature(fn).parameters.values():
                assert not p.name.startswith("max_"), where
                if p.name == "caps" or p.annotation in ("Caps", Caps) or isinstance(p.default, Caps):
                    assert (p.name, p.default) == ("caps", Caps()), where
                    capped.add(name)
    assert {"determinize", "extreme_rays", "circuit_free_words", "bound", "group_cell"} <= capped
