"""The public API is declared once, in each module's `__all__`."""

from pathlib import Path

import weightcell
from weightcell import automata, closedforms, cones, coxeter, cyclo, errors, limits, weights

MODULES = (automata, closedforms, cones, coxeter, cyclo, weights)
ERRORS = ("InputError", "PreconditionError", "ResourceLimitError", "UnboundedError", "WeightcellError")


def _owners():
    owners = {name: module for module in MODULES for name in module.__all__}
    owners.update({name: errors for name in ERRORS}, Caps=limits)
    return owners


def test_all_is_the_union_of_the_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name is declared twice
    assert sorted(weightcell.__all__) == sorted(declared + [*ERRORS, "Caps"])


def test_every_name_resolves_to_its_module_object():
    owners = _owners()
    for name in weightcell.__all__:
        assert getattr(weightcell, name) is getattr(owners[name], name), name


def test_every_cache_is_bounded():
    caches = {}
    for module in MODULES:
        for name, fn in vars(module).items():
            if not hasattr(fn, "cache_parameters"):  # perhaps a tracing wrapper
                fn = getattr(fn, "__wrapped__", fn)
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = fn
    # the walk finds every decorated function
    assert len(caches) == sum(Path(m.__file__).read_text().count("@lru_cache(") for m in MODULES)
    unbounded = [name for name, fn in caches.items() if type(fn.cache_parameters()["maxsize"]) is not int]
    assert not unbounded
