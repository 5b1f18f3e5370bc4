"""Cap configuration parsing, and the one-Caps-value design."""

import ast
import inspect
import json
from pathlib import Path

import pytest

import weightcell
from weightcell import automata, closedforms, cones, coxeter, limits, weights
from weightcell.automata import Automaton
from weightcell.cli import main
from weightcell.cones import HRep
from weightcell.errors import InputError, ResourceLimitError
from weightcell.limits import Caps
from weightcell.weights import WeightVector

from conftest import (
    b_series_system,
    f4_system,
    triangle_246_shortlex_automaton,
    triangle_333_shortlex_automaton,
    triangle_system,
)


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
    for module in (automata, closedforms, cones, coxeter, weights):
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
    assert {
        "determinize", "extreme_rays", "circuit_free_words", "bound", "group_cell",
        "spherical_nonneg",
    } <= capped


def _callers_dropping_caps() -> list[str]:
    """Calls inside the package to a function that takes `caps` but that
    leave the caps parameter to its default, as "caller -> callee".  Names
    resolve by module: a bare name to the module's own function or to its
    `from .module import name`, `module.name` to `from . import module`."""
    package = Path(weightcell.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    caps_position = {}  # (module, function) -> index of the positional `caps`, or None
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                if "caps" in params:
                    caps_position[(module, node.name)] = params.index("caps")
                elif "caps" in [a.arg for a in node.args.kwonlyargs]:
                    caps_position[(module, node.name)] = None
    dropped = []
    for module, tree in trees.items():
        names = {n.name: (module, n.name) for n in tree.body if isinstance(n, ast.FunctionDef)}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for top in tree.body:
            for call in ast.walk(top):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name):
                    callee = names.get(f.id)
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    callee = (modules.get(f.value.id), f.attr)
                else:
                    continue
                if callee not in caps_position:
                    continue
                position = caps_position[callee]
                passed = (
                    any(k.arg in ("caps", None) for k in call.keywords)
                    or (position is not None and len(call.args) > position)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                )
                if not passed:
                    caller = f"{module}.{getattr(top, 'name', '<module>')}"
                    dropped.append(f"{caller} -> {'.'.join(callee)}")
    return sorted(set(dropped))


def test_every_caller_passes_its_caps():
    # A cap reaches a layer only if each caller hands its own caps on.
    assert _callers_dropping_caps() == []


def test_counterexample_and_equivalent_obey_caps():
    a = triangle_333_shortlex_automaton()
    for fn in (automata.counterexample, automata.equivalent):
        with pytest.raises(ResourceLimitError):
            fn(a, a, Caps(states=1))


def test_implies_and_same_cone_obey_caps():
    # the third normal takes the combination step, which counts the rays
    quadrant = HRep(2, ((-1, 0), (0, -1), (-1, -1)))
    for fn in (cones.implies, cones.same_cone):
        assert fn(quadrant, quadrant)
        with pytest.raises(ResourceLimitError):
            fn(quadrant, quadrant, Caps(rays=1))


def test_hecke_onedim_obeys_caps():
    sys = b_series_system(3)
    with pytest.raises(ResourceLimitError):
        psi, signs = {n: 1 for n in sys.generators}, {n: "+" for n in sys.generators}
        coxeter.hecke_onedim(sys, psi, signs, Caps(states=2))


def test_spherical_nonneg_obeys_caps():
    sys = b_series_system(3)
    phi = WeightVector(sys.generators, (1, 1, 0))
    assert len(closedforms.spherical_nonneg(sys, phi).cell) == 2
    with pytest.raises(ResourceLimitError) as info:
        closedforms.spherical_nonneg(sys, phi, Caps(elements=1))
    assert (info.value.what, info.value.cap) == ("group elements", 1)


def test_finiteness_checks_obey_caps():
    # F4 has 24 minimal roots (all its positive roots)
    tight = Caps(roots=5)
    calls = [
        lambda: coxeter.is_positive_definite(f4_system(), None, tight),
        lambda: coxeter.longest_element(f4_system(), tight),
        lambda: closedforms.f4_bound(1, -1, tight),
        lambda: closedforms.spherical_nonneg(b_series_system(3), {"s1": 0, "s2": 0, "s3": 1}, tight),
    ]
    for call in calls:
        with pytest.raises(ResourceLimitError):
            call()


# ---------------------------------------------------------------------------
# Each cap at its boundary: an input that reaches the cap exactly passes,
# and the cap one lower stops with that stage and cap, in the library and,
# as exit 3 with the JSON error, through the CLI
# ---------------------------------------------------------------------------


def one_letter_from_the_end_nfa() -> Automaton:
    """(a|b)* a (a|b): 3 states, whose subset construction has 4."""
    transitions = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 2), (1, 1, 2))
    return Automaton(("a", "b"), 3, 0, frozenset({2}), transitions)


def system_document(sys) -> str:
    return json.dumps({"generators": list(sys.generators), "matrix": [list(row) for row in sys.matrix]})


def fig246_rays(caps):
    a = triangle_246_shortlex_automaton()
    return cones.extreme_rays(HRep(len(a.alphabet), tuple(weights.boundedness_cone_vectors(a))), caps)


# stage, Caps field, the count the input reaches, the library call under
# caps, the text of the CLI's input file (None: no file) and the CLI argv
# that the file's path ends
BOUNDARIES = [
    pytest.param(
        "simple cycles", "cycles", 5,
        lambda caps: weights.simple_cycles(weights.prepared(triangle_246_shortlex_automaton()), caps),
        lambda: automata.to_json(triangle_246_shortlex_automaton()), ["cone"],
        id="simple_cycles",
    ),
    pytest.param(
        "automaton file states", "states", 13,
        lambda caps: automata.from_json(automata.to_json(triangle_246_shortlex_automaton()), caps),
        lambda: automata.to_json(triangle_246_shortlex_automaton()), ["automaton", "info"],
        id="from_json",
    ),
    pytest.param(
        "extreme rays", "rays", 4, fig246_rays,
        lambda: automata.to_json(triangle_246_shortlex_automaton()), ["cone"],
        id="extreme_rays",
    ),
    pytest.param(
        "minimal roots", "roots", 6,
        lambda caps: coxeter.minimal_roots(triangle_system(3, 3, 3), caps),
        lambda: system_document(triangle_system(3, 3, 3)), ["coxeter", "build"],
        id="minimal_roots",
    ),
    pytest.param(
        "determinization states", "states", 4,
        lambda caps: automata.determinize(one_letter_from_the_end_nfa(), caps),
        lambda: automata.to_json(one_letter_from_the_end_nfa()), ["automaton", "min"],
        id="determinize",
    ),
    pytest.param(
        "minimal roots", "roots", 24,
        lambda caps: closedforms.f4_bound(1, -1, caps),
        None, ["coxeter", "closed-form", "f4", "--phi", "a=1,b=-1"],
        id="f4_bound",
    ),
]


@pytest.mark.parametrize("stage, field, count, call, document, argv", BOUNDARIES)
def test_cap_holds_exactly_at_the_count_reached(stage, field, count, call, document, argv):
    call(Caps(**{field: count}))
    with pytest.raises(ResourceLimitError) as info:
        call(Caps(**{field: count - 1}))
    assert (info.value.what, info.value.cap) == (stage, count - 1)


@pytest.mark.parametrize("stage, field, count, call, document, argv", BOUNDARIES)
def test_cli_exits_3_one_below_the_count_reached(
    stage, field, count, call, document, argv, tmp_path, monkeypatch, capsys
):
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(document())
        argv = argv + [str(path)]
    monkeypatch.setenv("WEIGHTCELL_CAPS", f"{field}={count}")
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("WEIGHTCELL_CAPS", f"{field}={count - 1}")
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": {
            "code": 3,
            "type": "ResourceLimitError",
            "message": f"{stage} exceeded the cap of {count - 1}",
            "stage": stage,
            "cap": count - 1,
        }
    }
