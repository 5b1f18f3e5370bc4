"""The public API is declared once, in each module's `__all__`."""

import copy
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_no_cache_is_keyed_on_an_automaton():
    # an automaton keeps its own derived data (cached properties); a cache
    # keyed on one would rehash all its transitions on every hit
    keyed = []
    for module in MODULES:
        for name, fn in vars(module).items():
            if not hasattr(fn, "cache_parameters"):  # perhaps a tracing wrapper
                fn = getattr(fn, "__wrapped__", fn)
            if hasattr(fn, "cache_parameters") and fn.__module__ == module.__name__:
                first = next(iter(inspect.signature(fn).parameters.values()), None)
                if first is not None and first.annotation in ("Automaton", automata.Automaton):
                    keyed.append(f"{module.__name__}.{name}")
    assert not keyed


# ---------------------------------------------------------------------------
# The value classes: one Record base with the frozen-dataclass contract
# ---------------------------------------------------------------------------

# Field names as `dataclasses.fields` gave them when these were dataclasses;
# GroupElement's cached `_hash` (then an init=False, repr=False field) is
# kept outside the fields.
FIELDS = {
    automata.Automaton: ("alphabet", "n_states", "start", "accept", "transitions"),
    closedforms.SphericalFormulaResult: ("alphabet", "bound", "cell"),
    closedforms.AffineConeSpec: ("family", "rank", "params", "normals", "all_normals", "rho", "rho_basis"),
    cones.HRep: ("dim", "normals"),
    cones.VRep: ("dim", "lineality", "rays"),
    coxeter.CoxeterSystem: ("generators", "matrix"),
    coxeter.GroupElement: ("system", "mat", "inv"),
    coxeter.MinimalRootTable: ("roots", "action"),
    coxeter.GroupCellResult: (
        "system", "language", "circuit_words", "free_words", "bound", "witnesses", "cell_nfa", "cell_dfa"
    ),
    coxeter.HeckeOneDim: ("phi", "bound", "cell_dfa"),
    cyclo.CycloReal: ("modulus", "coeffs"),
    limits.Caps: ("states", "cycles", "rays", "words", "elements", "roots"),
    weights.WeightVector: ("alphabet", "values"),
    weights.SimpleCycle: ("base_state", "arcs"),
    weights.BoundednessReport: ("bounded", "violating_cycle", "inequalities"),
    weights.CellResult: ("bound", "witnesses", "cell_nfa", "cell_dfa"),
}

A2 = coxeter.CoxeterSystem(("s", "t"), ((1, 3), (3, 1)))
TWO_CYCLE = automata.Automaton(("s", "t"), 2, 0, {1}, ((0, 0, 1), (1, 1, 0)))


def _samples():
    """(instance, its repr as the dataclasses printed it)."""
    a2 = "CoxeterSystem(generators=('s', 't'), matrix=((1, 3), (3, 1)))"
    aut = (
        "Automaton(alphabet=('s', 't'), n_states=2, start=0, accept=frozenset({1}), "
        "transitions=((0, 0, 1), (1, 1, 0)))"
    )
    wv = "WeightVector(alphabet=('s',), values=(Fraction(1, 1),))"
    mat = "(((-1,), (1,)), ((0,), (1,)))"
    half, one, two, three = Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)
    spec = closedforms.AffineConeSpec("Gt2", None, (one, two), ((1, -1),), ((1, -1), (0, 1)), None, None)
    return [
        (TWO_CYCLE, aut),
        (
            closedforms.SphericalFormulaResult(("s", "t"), half, ((0,), (0, 1))),
            "SphericalFormulaResult(alphabet=('s', 't'), bound=Fraction(1, 2), cell=((0,), (0, 1)))",
        ),
        (
            spec,
            "AffineConeSpec(family='Gt2', rank=None, params=(Fraction(1, 1), Fraction(2, 1)), "
            "normals=((1, -1),), all_normals=((1, -1), (0, 1)), rho=None, rho_basis=None)",
        ),
        (cones.HRep(2, ((2, -2), (0, 1))), "HRep(dim=2, normals=((1, -1), (0, 1)))"),
        (cones.VRep(2, (), ((1, 0),)), "VRep(dim=2, lineality=(), rays=((1, 0),))"),
        (A2, a2),
        (coxeter.natural_map(A2, (0,)), f"GroupElement(system={a2}, mat={mat}, inv={mat})"),
        (
            coxeter.MinimalRootTable((((1,), (0,)),), ((-2,),)),
            "MinimalRootTable(roots=(((1,), (0,)),), action=((-2,),))",
        ),
        (
            coxeter.HeckeOneDim(weights.WeightVector(("s",), (1,)), one, TWO_CYCLE),
            f"HeckeOneDim(phi={wv}, bound=Fraction(1, 1), cell_dfa={aut})",
        ),
        # CycloReal keeps its own repr
        (cyclo.CycloReal(5, (one, Fraction(0))), "CycloReal(M=5, [Fraction(1, 1), Fraction(0, 1)])"),
        (
            limits.Caps(states=7),
            "Caps(states=7, cycles=100000, rays=100000, words=1000000, elements=1000000, roots=100000)",
        ),
        (weights.WeightVector(("s",), (1,)), wv),
        (weights.SimpleCycle(0, ((0, 0), (1, 1))), "SimpleCycle(base_state=0, arcs=((0, 0), (1, 1)))"),
        (
            weights.BoundednessReport(True, None, ((1, 1),)),
            "BoundednessReport(bounded=True, violating_cycle=None, inequalities=((1, 1),))",
        ),
        (
            weights.CellResult(three, ((0,),)),
            "CellResult(bound=Fraction(3, 1), witnesses=((0,),), cell_nfa=None, cell_dfa=None)",
        ),
    ]


def test_record_fields_are_the_dataclass_fields():
    assert {cls: cls._fields for cls in FIELDS} == FIELDS
    assert len(FIELDS) == 16


def test_record_repr_is_the_dataclass_repr():
    for x, text in _samples():
        assert repr(x) == text
    cell = coxeter.group_cell(A2, {"s": 1, "t": 1})
    head = f"GroupCellResult(system={A2!r}, language='lex', circuit_words=(), free_words=((), (0,), (1,),"
    assert repr(cell).startswith(head)


def test_record_equality_and_hash_follow_the_fields():
    for x, _ in _samples():
        twin = copy.copy(x)
        assert twin is not x and twin == x and hash(twin) == hash(x)
        if type(x) is not coxeter.GroupElement:  # hashes its matrix alone
            assert hash(x) == hash(tuple(getattr(x, f) for f in x._fields))
    # equal field values in two classes do not make equal records
    cycle, table = weights.SimpleCycle(1, ()), coxeter.MinimalRootTable(1, ())
    assert cycle != table and table != cycle and cycle.__eq__(table) is NotImplemented
    assert weights.SimpleCycle(1, ()) == cycle != weights.SimpleCycle(2, ())


def test_record_fields_cannot_be_assigned_or_deleted():
    for x, _ in _samples():
        for name in (x._fields[0], "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_cached_properties_still_cache_on_records():
    phi = weights.WeightVector(("s", "t"), (Fraction(1, 2), Fraction(1, 3)))
    assert phi._integral == ((3, 2), 6) and "_integral" in vars(phi)
    cell = coxeter.group_cell(A2, {"s": 1, "t": 1})
    assert cell.X == frozenset() and len(cell.Y) == 6 and cell.Y is cell.Y
    assert {"X", "Y"} <= set(vars(cell))
    a = automata.Automaton(("s", "t"), 2, 0, {1}, ((0, 0, 1), (1, 1, 0)))
    before = (hash(a), repr(a))
    assert not {"deterministic", "_out_edges"} & set(vars(a))
    assert a.deterministic is True and a._out_edges == (((0, 1),), ((1, 0),))
    assert {"deterministic", "_out_edges"} <= set(vars(a)) and a._out_edges is a._out_edges
    assert a == TWO_CYCLE and (hash(a), repr(a)) == before
    twin = copy.copy(a)
    assert twin is not a and twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
