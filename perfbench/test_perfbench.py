"""Tests of the benchmark itself: every output check rejects a wrong answer,
and one seed always generates the same inputs.

  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from weightcell import automata, coxeter, weights  # noqa: E402


@pytest.fixture(scope="module")
def t237():
    """(2,3,7) reduced-word DFA, a weight inside its cone and one outside."""
    a = coxeter.language_automaton(workloads._system("T237"), "reduced")
    cone = workloads._cone_of(weights.boundedness_cone_vectors(a), 3)
    inside = workloads.cone_point(workloads.rng(0, "test"), cone, 3)
    outside = workloads.outside_point(workloads.rng(0, "test"), cone, 3)
    return a, inside, outside


@pytest.fixture(scope="module")
def f4():
    return coxeter.language_automaton(workloads._system("F4"), "lex")


def test_bound_check(t237):
    a, values, _ = t237
    result = weights.bound(a, weights.WeightVector(a.alphabet, values))
    assert checks.check_bound(a, values, result.bound, result.witnesses) is None
    assert checks.check_bound(a, values, result.bound + 1, result.witnesses)
    assert checks.check_bound(a, values, result.bound, ())
    other = next(w for w in checks.words_upto(a, 4) if checks.weight(values, w) != result.bound)
    assert checks.check_bound(a, values, result.bound, result.witnesses + (other,))
    assert checks.check_bound(a, values, result.bound, result.witnesses + ((0, 0),))  # not reduced
    # A claimed bound below some word's weight, with a witness that fits it.
    low = [w for w in checks.words_upto(a, 4) if checks.weight(values, w) < result.bound]
    assert checks.check_bound(a, values, checks.weight(values, low[0]), (low[0],))


def test_cell_check(t237):
    a, values, _ = t237
    result = weights.cell_automaton(a, weights.WeightVector(a.alphabet, values))
    args = (a, result.cell_dfa, values, result.bound, result.witnesses)
    assert checks.check_cell(*args) is None
    # The whole language as the cell: holds words below the bound.
    assert checks.check_cell(a, a, values, result.bound, result.witnesses)
    # A cell that misses the witnesses.
    empty = automata.Automaton(a.alphabet, 1, 0, frozenset(), ())
    assert checks.check_cell(a, empty, values, result.bound, result.witnesses)


def test_unbounded_check(t237):
    a, inside, outside = t237
    with pytest.raises(Exception) as info:
        weights.bound(a, weights.WeightVector(a.alphabet, outside))
    circuit = tuple(a.alphabet.index(x) for x in info.value.word)
    assert checks.check_unbounded(a, outside, circuit) is None
    assert checks.check_unbounded(a, inside, circuit)  # weighs <= 0 there
    assert checks.check_unbounded(a, outside, circuit + circuit[:1])  # not a circuit
    assert checks.check_unbounded(a, outside, ())


def test_finite_bound_check(f4):
    from weightcell import closedforms

    values = (2, 2, -1, -1)
    result = closedforms.f4_bound(2, -1)
    assert checks.check_finite_bound(f4, values, result.bound, result.cell) is None
    assert checks.check_finite_bound(f4, values, result.bound - 1, result.cell)
    assert checks.check_finite_bound(f4, values, result.bound, result.cell[1:])
    assert checks.check_finite_bound(f4, values, result.bound, result.cell + ((0,),))


def test_cone_check(t237):
    a, _, _ = t237
    from weightcell import cones

    raw = weights.boundedness_cone_vectors(a)
    irredundant = cones.remove_redundant(cones.HRep(3, tuple(raw)))
    v = cones.extreme_rays(irredundant)
    doc = {"raw_normals": raw, "normals": list(irredundant.normals),
           "lineality": list(v.lineality), "rays": list(v.rays)}
    assert checks.check_cone(doc) is None
    assert checks.check_cone(dict(doc, rays=[[-x for x in doc["rays"][0]]]))  # outside
    assert checks.check_cone(dict(doc, rays=[[a + b for a, b in zip(*doc["rays"][:2])]]))  # not extreme
    assert checks.check_cone(dict(doc, normals=doc["normals"] + [[1, 0, 0]]))
    assert checks.check_cone(dict(doc, lineality=[[1, 0, 0]]))


def _group_arith():
    ga = workloads.GroupArith(0)
    ga.sys = {n: workloads._system(n) for n in ("F4", "T345")}
    ga.dfas = {n: coxeter.language_automaton(s, "lex") for n, s in ga.sys.items()}
    return ga


def test_normal_form_check():
    ga = _group_arith()
    sys_ = ga.sys["T345"]
    word = (2, 0, 2, 1, 0, 1, 2, 1)  # starts with usu = sus, so not shortlex
    g = coxeter.natural_map(sys_, word)
    normal = coxeter.lex_word(sys_, g)
    assert len(normal) == len(word) and normal != word
    check = ga._word_check("T345", word)
    assert check((g, normal), None) is None
    assert check((g, word), None)  # not shortlex
    other = next(w for w in checks.words_upto(ga.dfas["T345"], len(word)) if len(w) == len(word) and w != normal)
    assert check((g, other), None)  # another element
    assert check((g, normal[:-1]), None)  # too short
    assert check(None, ValueError("boom"))


def test_ball_check():
    ga = _group_arith()
    sys_ = ga.sys["F4"]
    result = coxeter.ball(sys_, 3)
    assert ga._ball_check("F4", sys_, 3)(result, None) is None
    short = dict(list(result.items())[:-1])
    assert ga._ball_check("F4", sys_, 3)(short, None)
    swapped = dict(result)
    g, w = next((g, w) for g, w in result.items() if len(w) == 3 and w != w[::-1])
    swapped[g] = w[::-1]
    assert ga._ball_check("F4", sys_, 3)(swapped, None)
    order = ("s2", "s1", "s3", "s4")
    other = coxeter.ball(sys_.reorder(order), 3)
    assert ga._ball_check("F4", sys_.reorder(order), 3)(other, None) is None
    wrong = {g: w for (g, _), w in zip(other.items(), reversed(list(other.values())))}
    assert ga._ball_check("F4", sys_.reorder(order), 3)(wrong, None)


def test_cli_checks(f4):
    refs = workloads.CliReferences(HERE)
    refs._dfas["F4"] = f4
    op = {"id": "r0.bound-F4", "kind": "bound", "dfa": "F4", "values": (1, 1, -2, -2)}
    result = weights.bound(f4, weights.WeightVector(f4.alphabet, op["values"]))
    doc = {"bound": str(result.bound), "witnesses": [list(f4.word_names(w)) for w in result.witnesses]}
    good = json.dumps(doc)
    assert workloads.check_cli(op, 0, good, "", refs, None) is None
    assert workloads.check_cli(op, 0, good, "", refs, {op["id"]: workloads.digest(good)}) is None
    assert workloads.check_cli(op, 0, good, "", refs, {op["id"]: workloads.digest("other")})
    assert workloads.check_cli(op, 0, json.dumps(dict(doc, bound=str(result.bound + 1))), "", refs, None)
    assert workloads.check_cli(op, 2, "", "{}", refs, None)
    unbounded = dict(op, kind="unbounded")
    assert workloads.check_cli(unbounded, 0, good, "", refs, None)  # must exit 4


def test_cli_closed_form_check():
    from weightcell import closedforms

    refs = workloads.CliReferences(HERE)
    op = {"id": "r0.closed-dihedral-0", "kind": "closed", "dfa": "I2_8", "values": (3, -1)}
    result = closedforms.dihedral_bound(4, 3, -1)
    doc = {"bound": str(result.bound), "cell": list(result.cell_texts())}
    assert workloads.check_cli(op, 0, json.dumps(doc), "", refs, None) is None
    assert workloads.check_cli(op, 0, json.dumps(dict(doc, cell=["st"])), "", refs, None)
    assert workloads.check_cli(op, 0, json.dumps(dict(doc, bound="0")), "", refs, None)


def test_cli_build_check():
    refs = workloads.CliReferences(HERE)
    op = {"id": "r0.build-F4", "kind": "build", "system": "F4"}
    a = coxeter.language_automaton(workloads._system("F4"), "lex")
    assert workloads.check_cli(op, 0, automata.to_json(a), "", refs, None) is None
    reduced = coxeter.language_automaton(workloads._system("F4"), "reduced")
    assert workloads.check_cli(op, 0, automata.to_json(reduced), "", refs, None)


def _ws_inputs(seed, rounds=2):
    """weight-sweep inputs drawn from a stand-in cone {x : sum(x) <= 0}."""
    ws = workloads.WeightSweep(seed)
    ws.cones = {}
    for name, *_ in ws.TARGETS:
        dim = len(workloads.systems.SYSTEMS[name][0])
        ws.cones[name] = {"normals": [[1] * dim], "rays": [[-1] + [0] * (dim - 1)],
                          "lineality": [[1, -1] + [0] * (dim - 2)]}
    return [ws.inputs(r) for r in range(rounds)]


def _group_arith_inputs(seed):
    """GroupArith with stand-in DFAs: each system's free monoid."""
    ga = workloads.GroupArith(seed)
    ga.dfas = {}
    for name, _ in ga.WORDS:
        names = workloads.systems.SYSTEMS[name][0]
        loops = tuple((0, i, 0) for i in range(len(names)))
        ga.dfas[name] = automata.Automaton(names, 1, 0, frozenset({0}), loops)
    return ga


CONES = {
    "B3t": {"normals": [[4, 1], [2, 1]], "rays": [[-1, 2], [1, -4]], "lineality": []},
    "C4t": {"normals": [[1, 1, 1, 1, 1]], "rays": [[-1, 0, 0, 0, 0]], "lineality": [[1, -1, 0, 0, 0]]},
}


@pytest.mark.parametrize("make", [
    lambda seed: [workloads.cli_ops(seed, r, CONES) for r in range(2)],
    _ws_inputs,
    lambda seed: [_group_arith_inputs(seed).inputs(r) for r in range(2)],
])
def test_inputs_depend_only_on_the_seed(make):
    first, second = json.dumps(make(7)), json.dumps(make(7))
    assert first == second
    assert json.dumps(make(8)) != first


def test_ops_never_repeat_a_call():
    ga = _group_arith_inputs(3)
    ops = [op for r in range(30) for op in ga.inputs(r)]
    keys = [json.dumps({k: v for k, v in op.items() if k != "id"}) for op in ops]
    assert len(set(keys)) == len(keys)
    balls = [(op["system"], tuple(op["order"]), op["radius"]) for op in ops if op["op"] == "ball"]
    assert len(set(balls)) == len(balls)
    ws_ops = [op for rnd in _ws_inputs(3, rounds=5) for op in rnd]
    assert len({(op["dfa"], op["kind"], op["values"]) for op in ws_ops}) == len(ws_ops)
    assert 0.2 < sum(op["raw"] for op in ws_ops) / len(ws_ops) < 0.3  # about a quarter are raw vectors


def test_weights_are_valid_and_on_the_right_side():
    b3_classes = workloads.systems.weight_classes("B3t")
    for r in range(5):
        ops = {op["id"].split(".", 1)[1]: op for op in workloads.cli_ops(5, r, CONES)}
        for key in ("bound-F4", "closed-f4-0", "cell-B3t", "unbounded-B3t"):
            sys_ = workloads._system(ops[key]["dfa"])
            assert coxeter.validate_weight(sys_, dict(zip(sys_.generators, ops[key]["values"])))
        for key, unbounded in (("cell-B3t", False), ("unbounded-B3t", True)):
            point = [ops[key]["values"][c[0]] for c in b3_classes]
            assert any(workloads._dot(n, point) > 0 for n in CONES["B3t"]["normals"]) == unbounded


def test_weight_classes_match_the_library():
    for name in workloads.systems.SYSTEMS:
        expected = [list(c) for c in coxeter.weight_classes(workloads._system(name))]
        assert workloads.systems.weight_classes(name) == expected


def test_cache_counts_see_every_cached_function():
    import tracer

    before = tracer.cache_counts()
    f4 = workloads._system("F4")
    coxeter.ball(f4.reorder(("s4", "s3", "s2", "s1")), 2)
    coxeter.is_positive_definite(coxeter.CoxeterSystem(("a", "b"), ((1, 7), (7, 1))))
    after = tracer.cache_counts()
    assert after["cache.ball.misses"] > before["cache.ball.misses"]
    assert after["cache.is_positive_definite.misses"] > before["cache.is_positive_definite.misses"]


def test_speed_scale_never_depends_on_the_program():
    import subprocess

    import speed

    assert speed.scale([0.01, 0.04, 0.02]) == pytest.approx(speed.REFERENCE_S / 0.02)
    code = "import sys, speed; speed.loop_s(); print(any(m.startswith('weightcell') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
