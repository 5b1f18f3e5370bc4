"""The public API is declared once, in each module's `__all__`."""

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
