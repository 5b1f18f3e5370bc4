"""End-to-end CLI tests: exit codes, JSON error contract, determinism."""

import argparse
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import weightcell
from weightcell.automata import equivalent, from_json, to_json
from weightcell.cli import _build_parser, main

from conftest import (
    dihedral_reduced_words_automaton,
    single_cycle_automaton,
    triangle_246_shortlex_automaton,
    triangle_333_shortlex_automaton,
)


@pytest.fixture
def fig246_file(tmp_path):
    path = tmp_path / "fig246.json"
    path.write_text(to_json(triangle_246_shortlex_automaton()))
    return str(path)


@pytest.fixture
def fig333_file(tmp_path):
    path = tmp_path / "fig333.json"
    path.write_text(to_json(triangle_333_shortlex_automaton()))
    return str(path)


@pytest.fixture
def dihedral_file(tmp_path):
    path = tmp_path / "dihedral.json"
    path.write_text(to_json(dihedral_reduced_words_automaton()))
    return str(path)


@pytest.fixture
def delta246_file(tmp_path):
    path = tmp_path / "delta246.json"
    path.write_text(
        json.dumps(
            {
                "generators": ["s", "t", "u"],
                "matrix": [[1, 4, 2], [4, 1, 6], [2, 6, 1]],
            }
        )
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAutomatonCommands:
    def test_info(self, capsys, fig246_file):
        code, out, err = run(capsys, "automaton", "info", fig246_file, "--format", "json")
        assert code == 0 and not err
        doc = json.loads(out)
        assert doc["states"] == 13 and doc["deterministic"] is True

    def test_min_canonical_json(self, capsys, fig333_file):
        code, out, _ = run(capsys, "automaton", "min", fig333_file, "--format", "json")
        assert code == 0
        a = from_json(out)
        assert a.n_states == 13
        assert equivalent(a, triangle_333_shortlex_automaton())

    def test_enum(self, capsys, dihedral_file):
        code, out, _ = run(capsys, "automaton", "enum", dihedral_file, "--maxlen", "3")
        assert code == 0
        assert out.splitlines() == ["", "s", "t", "st", "ts", "sts", "tst"]

    def test_enum_empty_language(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(
            '{"alphabet": ["s"], "states": 1, "start": 0, "accept": [],'
            ' "transitions": [], "deterministic": true}'
        )
        code, out, _ = run(capsys, "automaton", "info", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["language_empty"] is True

    def test_reverse(self, capsys, dihedral_file):
        code, out, _ = run(capsys, "automaton", "reverse", dihedral_file, "--format", "json")
        assert code == 0
        from_json(out)

    def test_dot_output(self, capsys, dihedral_file):
        code, out, _ = run(capsys, "automaton", "min", dihedral_file, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and "doublecircle" in out

    def test_bad_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "automaton", "info", str(bad))
        assert code == 2
        assert json.loads(err)["error"]["code"] == 2

    @pytest.mark.parametrize(
        "argv",
        [["automaton", "info"], ["cone"], ["bound", "--phi", "a=1"]],
        ids=["info", "cone", "bound"],
    )
    def test_huge_state_count_exit_3(self, capsys, tmp_path, argv):
        # read before anything is built per state: no MemoryError, no kill
        path = tmp_path / "huge.json"
        doc = {"alphabet": ["a"], "states": 10**12, "start": 0, "accept": [0], "transitions": []}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], *argv[1:], str(path))
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ResourceLimitError"
        assert (error["stage"], error["cap"]) == ("automaton file states", 1_000_000)

    def test_state_count_obeys_max_states(self, capsys, fig246_file):
        code, out, err = run(capsys, "automaton", "info", fig246_file, "--max-states", "3")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["cap"] == 3

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "automaton", "info", "/nonexistent.json")
        assert code == 2 and json.loads(err)["error"]["type"] == "InputError"


class TestConeBoundCell:
    def test_cone(self, capsys, fig246_file):
        code, out, _ = run(capsys, "cone", fig246_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert sorted(map(tuple, doc["normals"])) == [
            (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2)
        ]
        assert len(doc["raw_normals"]) == 5
        assert sorted(map(tuple, doc["rays"])) == [
            (-2, 0, 1), (-1, 1, -1), (0, -1, 1), (1, 0, -1)
        ]

    def test_bound(self, capsys, fig246_file):
        code, out, _ = run(
            capsys, "bound", fig246_file, "--phi", "s=1,t=2,u=-5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == "6"
        assert doc["witnesses"] == [["s", "t", "s", "t"]]

    def test_bound_unbounded_exit_4(self, capsys, fig333_file):
        code, _, err = run(capsys, "bound", fig333_file, "--phi", "s=1,t=1,u=1")
        assert code == 4
        doc = json.loads(err)
        assert doc["error"]["code"] == 4
        assert doc["error"]["violating_circuit"]

    def test_cell_writes_files(self, capsys, dihedral_file, tmp_path):
        prefix = str(tmp_path / "out")
        code, out, _ = run(
            capsys,
            "cell", dihedral_file, "--phi", "s=1,t=-1",
            "--out-prefix", prefix, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == "1"
        dfa = from_json((tmp_path / "out-cell-dfa.json").read_text())
        assert dfa.n_states == 2
        assert (tmp_path / "out-cell-dfa.dot").read_text().startswith("digraph")

    def test_deep_cycle_has_no_recursion_limit(self, capsys, tmp_path):
        # one circuit through 3,000 states: the circuit and circuit-free word
        # searches must not recurse once per state
        path = tmp_path / "cycle3000.json"
        path.write_text(to_json(single_cycle_automaton(3000)))
        code, out, err = run(capsys, "bound", str(path), "--phi", "s=-1,t=1")
        assert (code, err) == (0, "")
        assert out == f"bound: -2999\nwitnesses: {'s' * 2999}\n"
        code, out, err = run(capsys, "cone", str(path), "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["raw_normals"] == doc["normals"] == [[2999, 1]]
        assert doc["lineality"] == [[1, -2999]] and doc["rays"] == [[-1, 0]]

    def test_words_cap_exit_3(self, capsys, fig333_file, monkeypatch):
        # the zero weight makes all 64 circuit-free words of fig 3.3.3 witnesses
        monkeypatch.setenv("WEIGHTCELL_CAPS", "words=10")
        code, out, err = run(capsys, "bound", fig333_file, "--phi", "s=0,t=0,u=0")
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert "circuit-free words" in error["message"]
        assert (error["stage"], error["cap"]) == ("circuit-free words", 10)

    def test_bad_phi_exit_2(self, capsys, fig246_file):
        code, _, err = run(capsys, "bound", fig246_file, "--phi", "s=1")
        assert code == 2 and json.loads(err)["error"]["code"] == 2


class TestCoxeterCommands:
    def test_build_matches_reference(self, capsys, delta246_file):
        code, out, _ = run(
            capsys,
            "coxeter", "build", delta246_file,
            "--order", "s,t,u", "--lang", "lex", "--format", "json",
        )
        assert code == 0
        a = from_json(out)
        assert a.n_states == 13
        assert equivalent(a, triangle_246_shortlex_automaton())

    def test_build_deterministic_output(self, capsys, delta246_file):
        _, out1, _ = run(capsys, "coxeter", "build", delta246_file, "--format", "json")
        _, out2, _ = run(capsys, "coxeter", "build", delta246_file, "--format", "json")
        assert out1 == out2

    def test_cone_with_classes(self, capsys, delta246_file):
        code, out, _ = run(capsys, "coxeter", "cone", delta246_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"]["classes"] == [["s"], ["t"], ["u"]]
        assert sorted(map(tuple, doc["letters"]["normals"])) == [
            (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2)
        ]

    def test_cell(self, capsys, delta246_file, tmp_path):
        prefix = str(tmp_path / "g")
        code, out, _ = run(
            capsys,
            "coxeter", "cell", delta246_file,
            "--phi", "s=-1,t=1,u=-1", "--out-prefix", prefix, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == "1"
        assert doc["Y_size"] == 92

    def test_bound_unbounded_on_the_group(self, capsys, tmp_path):
        path = tmp_path / "aff333.json"
        path.write_text(
            json.dumps(
                {"generators": ["s", "t", "u"], "matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}
            )
        )
        code, out, err = run(
            capsys, "coxeter", "bound", str(path), "--phi", "s=1,t=1,u=1"
        )
        assert (code, out) == (4, "")
        assert err == (
            '{\n  "error": {\n    "code": 4,\n    "type": "UnboundedError",\n'
            '    "message": "weight function is unbounded on the group",\n'
            '    "violating_circuit": [\n      "s",\n      "t",\n      "s",\n      "u"\n'
            "    ]\n  }\n}\n"
        )

    def test_bound_rejects_incompatible_weight(self, capsys, tmp_path):
        path = tmp_path / "aff333.json"
        path.write_text(
            json.dumps(
                {"generators": ["s", "t", "u"], "matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}
            )
        )
        code, _, err = run(
            capsys, "coxeter", "bound", str(path), "--phi", "s=0,t=1,u=-1"
        )
        assert code == 2

    def test_closed_form_f4(self, capsys):
        code, out, _ = run(
            capsys, "coxeter", "closed-form", "f4", "--phi", "a=1,b=-1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["bound"] == "4"

    def test_closed_form_dihedral(self, capsys):
        code, out, _ = run(
            capsys,
            "coxeter", "closed-form", "dihedral", "--m", "3",
            "--phi", "a=-1,b=1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == "1"
        assert doc["cell"] == ["t", "tst", "tstst"]

    def test_closed_form_affine(self, capsys):
        code, out, _ = run(
            capsys,
            "coxeter", "closed-form", "ct", "--n", "2",
            "--phi", "a=1,b=1,c=1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert sorted(map(tuple, doc["normals"])) == [(1, 1, 1), (1, 2, 1)]

    def test_probe_spherical(self, capsys, delta246_file):
        code, out, _ = run(
            capsys,
            "coxeter", "probe-spherical", delta246_file,
            "--samples", "3", "--seed", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["samples"]) == 3
        for sample in doc["samples"]:
            assert "some_witness_in_finite_parabolic" in sample

    def test_probe_spherical_negative_samples_exit_2(self, capsys, delta246_file):
        code, out, err = run(capsys, "coxeter", "probe-spherical", delta246_file, "--samples", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_resource_cap_exit_3(self, capsys, delta246_file):
        code, _, err = run(
            capsys, "coxeter", "build", delta246_file, "--max-states", "2"
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == 3

    def test_roots_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        # A3 has 6 minimal roots (its positive roots), so a cap of 2 must stop
        # the build in the minimal-root search.
        path = tmp_path / "a3.json"
        path.write_text(
            json.dumps(
                {"generators": ["a", "b", "c"], "matrix": [[1, 3, 2], [3, 1, 3], [2, 3, 1]]}
            )
        )
        monkeypatch.setenv("WEIGHTCELL_CAPS", "roots=2")
        code, out, err = run(capsys, "coxeter", "build", str(path), "--format", "json")
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == 3
        assert error["type"] == "ResourceLimitError"
        assert "minimal roots" in error["message"]
        assert (error["stage"], error["cap"]) == ("minimal roots", 2)

    def test_cap_flags_override_weightcell_caps_field_by_field(self, capsys, tmp_path, monkeypatch):
        # H4 has 60 minimal roots and an 85-state shortlex DFA
        path = tmp_path / "h4.json"
        matrix = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
        path.write_text(json.dumps({"generators": ["s0", "s1", "s2", "s3"], "matrix": matrix}))
        monkeypatch.setenv("WEIGHTCELL_CAPS", "states=3,roots=5")
        code, out, err = run(capsys, "coxeter", "build", str(path), "--max-states", "100000")
        assert (code, out) == (3, "")
        assert [json.loads(err)["error"][k] for k in ("stage", "cap")] == ["minimal roots", 5]
        monkeypatch.setenv("WEIGHTCELL_CAPS", "states=3")
        code, out, err = run(capsys, "coxeter", "build", str(path), "--format", "json")
        assert [json.loads(err)["error"][k] for k in ("stage", "cap")] == ["automaton states", 3]
        code, out, err = run(capsys, "coxeter", "build", str(path), "--format", "json", "--max-states", "100000")
        assert (code, err, json.loads(out)["states"]) == (0, "", 85)
        code, out, err = run(capsys, "coxeter", "build", str(path), "--max-states", "0")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "cap 'states' must be positive"


class TestInputTypes:
    """Wrong JSON types and non-weight assignments end in exit 2, not in a
    traceback or a silent coercion."""

    def test_nonneg_rejects_assignment_that_is_not_a_weight_function(self, capsys, tmp_path):
        # H3's bonds 5 and 3 are odd, so a weight function is constant
        path = tmp_path / "h3.json"
        path.write_text(json.dumps({"generators": ["a", "b", "c"], "matrix": [[1, 5, 2], [5, 1, 3], [2, 3, 1]]}))
        code, out, err = run(
            capsys, "coxeter", "closed-form", "nonneg", "--file", str(path), "--phi", "a=1,b=0,c=0"
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InputError"

    def test_automaton_letters_must_be_strings(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        doc = {"alphabet": [1, 2], "states": 1, "start": 0, "accept": [0], "transitions": [[0, 1, 0]]}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "automaton", "enum", str(path), "--maxlen", "2")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("states", 2.9),
            ("states", True),
            ("start", 0.0),
            ("start", True),
            ("accept", [0.5]),
            ("accept", [False]),
            ("transitions", [[0, "a", 1.5]]),
            ("transitions", [[True, "a", 1]]),
            ("states", "2"),
        ],
    )
    def test_automaton_state_numbers_must_be_integers(self, capsys, tmp_path, field, value):
        path = tmp_path / "a.json"
        doc = {"alphabet": ["a"], "states": 2, "start": 0, "accept": [0], "transitions": [[0, "a", 1]]}
        path.write_text(json.dumps({**doc, field: value}))
        code, out, err = run(capsys, "automaton", "info", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize(
        "generators,matrix,argv",
        [
            ([["s"], "t"], [[1, 3], [3, 1]], ["build"]),
            ([1, 2], [[1, 3], [3, 1]], ["bound", "--phi", "1=1,2=1"]),
            (["s", "t"], [[1, 3.7], [3.7, 1]], ["build"]),
            (["s", "t"], [[True, 3], [3, True]], ["build"]),
        ],
        ids=["list-name", "int-names", "float-label", "bool-label"],
    )
    def test_coxeter_names_and_labels(self, capsys, tmp_path, generators, matrix, argv):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"generators": generators, "matrix": matrix}))
        code, out, err = run(capsys, "coxeter", argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InputError"


class TestOptionContract:
    """A command accepts only the formats it writes, `-o` takes every
    format, and `closed-form` reads its parameters as `bound` reads weights."""

    @pytest.mark.parametrize(
        "command,fmt",
        [
            (("automaton", "info", "FILE"), "dot"),
            (("automaton", "enum", "FILE", "--maxlen", "2"), "dot"),
            (("coxeter", "cone", "SYS"), "dot"),
            (("coxeter", "bound", "SYS", "--phi", "s=-1,t=1,u=-1"), "dot"),
            (("coxeter", "cell", "SYS", "--phi", "s=-1,t=1,u=-1"), "dot"),
            (("automaton", "min", "FILE"), "text"),
            (("automaton", "reverse", "FILE"), "text"),
            (("coxeter", "build", "SYS"), "text"),
        ],
        ids=["info", "enum", "cone", "bound", "cell", "min", "reverse", "build"],
    )
    def test_format_the_command_does_not_write_exit_2(
        self, capsys, dihedral_file, delta246_file, command, fmt
    ):
        files = {"FILE": dihedral_file, "SYS": delta246_file}
        code, out, err = run(capsys, *[files.get(arg, arg) for arg in command], "--format", fmt)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["code"], error["type"]) == (2, "InputError")

    def test_cone_text_output(self, capsys, delta246_file, tmp_path):
        # golden case coxeter-cone-246-json-output holds the json format
        code, want, _ = run(capsys, "coxeter", "cone", delta246_file)
        assert code == 0
        path = tmp_path / "cone.txt"
        code, out, err = run(capsys, "coxeter", "cone", delta246_file, "--format", "text", "-o", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == want

    @pytest.mark.parametrize(
        "family,argv,phi",
        [
            ("f4", [], "a=1,b=-1"),
            ("b", ["--n", "3"], "a=1,b=-1"),
            ("dihedral", ["--m", "3"], "a=1,b=-1"),
            ("ct", ["--n", "2"], "a=1,b=1,c=1"),
            ("nonneg", ["--file", "B3"], "s0=1,s1=1,s2=1"),
        ],
        ids=["f4", "b", "dihedral", "ct", "nonneg"],
    )
    def test_closed_form_parameters(self, capsys, tmp_path, family, argv, phi):
        b3 = tmp_path / "b3.json"
        matrix = [[1, 3, 2], [3, 1, 4], [2, 4, 1]]  # B3: s0 -3- s1 -4- s2
        b3.write_text(json.dumps({"generators": ["s0", "s1", "s2"], "matrix": matrix}))
        argv = ["coxeter", "closed-form", family, *(str(b3) if arg == "B3" else arg for arg in argv)]
        assert run(capsys, *argv, "--phi", phi)[0] == 0
        # a repeat of the first parameter, an unknown name, and no last parameter;
        # the message names the parameter and does not call it a letter
        first, last = phi.split(",")[0], phi.split(",")[-1]
        for bad, name in (
            (f"{phi},{first}", first.partition("=")[0]),
            (f"{phi},zzz=4", "zzz"),
            (phi.rpartition(",")[0], last.partition("=")[0]),
        ):
            code, out, err = run(capsys, *argv, "--phi", bad)
            assert (code, out) == (2, ""), bad
            error = json.loads(err)["error"]
            assert error["type"] == "InputError"
            assert re.search(rf"\b{name}\b", error["message"]) and "letter" not in error["message"], error

    @pytest.mark.parametrize(
        "argv",
        [
            ["f4", "--phi", "a=1,b=-1", "--n", "7", "--m", "3", "--file", "/nonexistent.json"],
            ["ft4", "--phi", "a=1,b=-1", "--m", "9"],
            ["dihedral", "--m", "3", "--n", "40", "--phi", "a=1,b=-1"],
        ],
        ids=["f4", "ft4", "dihedral"],
    )
    def test_closed_form_option_the_family_does_not_read_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "coxeter", "closed-form", *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["code"], error["type"]) == (2, "InputError")
        assert "unrecognized arguments" in error["message"]

    @pytest.mark.parametrize(
        "family,option,phi",
        [
            ("dihedral", "--m", "a=1,b=-1"),
            ("b", "--n", "a=1,b=-1"),
            ("bt", "--n", "a=1,b=-1"),
            ("ct", "--n", "a=1,b=-1,c=2"),
            ("nonneg", "--file", "s0=1,s1=1,s2=1"),
        ],
    )
    def test_closed_form_required_option_exit_2(self, capsys, family, option, phi):
        code, out, err = run(capsys, "coxeter", "closed-form", family, "--phi", phi)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and option in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["automaton", "info", "FILE", "-o", "MISSING/x"],
            ["cell", "FILE", "--phi", "s=1,t=-1", "--out-prefix", "MISSING/x"],
        ],
        ids=["output", "out-prefix"],
    )
    def test_unwritable_output_exit_2(self, capsys, tmp_path, dihedral_file, argv):
        files = {"FILE": dihedral_file, "MISSING/x": str(tmp_path / "missing" / "x")}
        code, out, err = run(capsys, *[files.get(arg, arg) for arg in argv])
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "InputError" and error["message"].startswith("cannot write")


@pytest.mark.parametrize(
    "command,calls",
    [
        (("cone", "FILE"), 1),
        (("coxeter", "cone", "SYS"), 2),
        (("coxeter", "probe-spherical", "SYS", "--samples", "2"), 1),
    ],
)
def test_one_double_description_per_cone(capsys, monkeypatch, fig246_file, delta246_file, command, calls):
    # describe() reads the irredundant normals and the rays off one run
    import weightcell.cones as cones

    counted = []
    original = cones.extreme_rays

    def counting(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cones, "extreme_rays", counting)
    files = {"FILE": fig246_file, "SYS": delta246_file}
    code, _, _ = run(capsys, *[files.get(arg, arg) for arg in command])
    assert code == 0
    assert len(counted) == calls


def test_cli_import_leaves_mpmath_unloaded():
    # every CLI call is a fresh process, so start-up time is paid per call;
    # dataclasses (and the inspect it imports) cost more than weightcell's
    # own module bodies
    src = str(Path(weightcell.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, weightcell.cli; print(sorted({'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The exit-code contract over every leaf command
# ---------------------------------------------------------------------------

NAMES = ("s", "t", "u", "a", "b", "c")
JUNK = st.sampled_from([None, -1, 0, 2.5, True, "x", "", [], {}, [1, "s"], [[0, "s"]], 10**12])


def _leaf_parsers(parser, path=()):
    """(command path, parser) of every leaf of the CLI's parser tree."""
    subs = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


LEAVES = sorted(_leaf_parsers(_build_parser()), key=lambda leaf: leaf[0])


def _rarely(draw, good, bad):
    """`good` about nine times in ten, else `bad`, so that most drawn inputs
    are valid.  (Hypothesis favours the ends of a range, hence the 5.)"""
    return bad if draw(st.integers(0, 9)) == 5 else good


@st.composite
def _mutated(draw, doc):
    """`doc`, or a copy with one field replaced or dropped, or no object at all."""
    choice = draw(st.integers(0, 19))
    if choice == 5:
        key = draw(st.sampled_from(sorted(doc)))
        return {**doc, key: draw(JUNK)}
    if choice == 6:
        key = draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != key}
    if choice == 7:
        return draw(JUNK)
    return doc


@st.composite
def automaton_docs(draw):
    alphabet = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    transition = st.tuples(state, st.sampled_from(alphabet), state).map(list)
    doc = {
        "alphabet": alphabet,
        "states": n,
        "start": draw(state),
        "accept": draw(st.lists(state, max_size=n, unique=True)),
        "transitions": draw(st.lists(transition, max_size=10)),
        "deterministic": draw(st.booleans()),
    }
    return draw(_mutated(doc))


@st.composite
def coxeter_docs(draw):
    rank = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=rank, max_size=rank, unique=True))
    matrix = [[1] * rank for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        matrix[i][j] = matrix[j][i] = draw(st.sampled_from([0, 2, 2, 3, 3, 4, 6]))
    if rank > 1 and draw(st.integers(0, 9)) == 5:  # an entry that breaks the matrix
        matrix[0][1] = draw(st.sampled_from([1, -3, 2.5, True, "3", None]))
    return draw(_mutated({"generators": names, "matrix": matrix}))


def _names(doc):
    """The document's letters or generators, for --phi and --order."""
    try:
        names = [str(name) for name in doc.get("generators") or doc.get("alphabet")]
    except (AttributeError, TypeError):
        names = []
    return names or list(NAMES[:3])


def _phi(draw, names):
    bad = draw(st.sampled_from([[*names, "zzz"], names[:-1], [*names, names[0]], ["a", "b", "c"], ["a", "b"]]))
    values = st.sampled_from(["-2", "-1", "-1", "0", "1", "1", "2", "1/2"])
    return ",".join(f"{name}={_rarely(draw, draw(values), 'x')}" for name in _rarely(draw, names, bad))


def _option_value(draw, option, action, tmp, path, names):
    """A small, sometimes malformed, value for one option of a leaf."""
    if option in ("file", "--file"):
        return str(path)
    if option == "--phi":
        return _phi(draw, names)
    if option in ("--output", "--out-prefix"):
        return str(tmp / _rarely(draw, "out", "missing/out"))
    if option == "--order":
        return _rarely(draw, ",".join(draw(st.permutations(names))), "s,,zzz")
    if action.choices:
        return _rarely(draw, draw(st.sampled_from(action.choices)), "xml")
    ranges = {"--maxlen": (0, 4), "--m": (1, 10), "--n": (1, 6), "--samples": (0, 2), "--seed": (0, 9)}
    low, high = ranges.get(option, (1, 300))  # the --max-* caps
    return str(_rarely(draw, draw(st.integers(low, high)), low - 1))


SMALL_CAPS = "states=300,cycles=300,rays=300,words=500,elements=500,roots=40"


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_leaf_ends_in_a_result_or_a_json_error(data):
    # any drawn input exits 0, or 2, 3 or 4 with the JSON error document on
    # stderr; any other exception fails the test
    path, parser = data.draw(st.sampled_from(LEAVES), label="leaf")
    coxeter_input = path[0] == "coxeter"
    doc = data.draw(coxeter_docs() if coxeter_input else automaton_docs(), label="document")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        file = tmp / "input.json"
        file.write_text(json.dumps(doc))
        argv = list(path)
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            option = action.option_strings[-1] if action.option_strings else action.dest
            if _rarely(data.draw, not action.required, action.required) and data.draw(st.booleans()):
                continue
            names = parser.get_default("params") or _names(doc)  # a closed form's parameters
            value = _option_value(data.draw, option, action, tmp, file, list(names))
            argv += [value] if not action.option_strings else [option, value]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # `cell` without --out-prefix writes next to the input's name
        try:
            with mock.patch.dict(os.environ, {"WEIGHTCELL_CAPS": SMALL_CAPS}):
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), argv
    if code:
        assert out.getvalue() == "", argv
        assert json.loads(err.getvalue())["error"]["code"] == code, argv
    else:
        assert err.getvalue() == "", argv


def test_the_contract_test_reaches_every_leaf():
    assert [" ".join(path) for path, _ in LEAVES] == sorted(
        [
            "automaton enum", "automaton info", "automaton min", "automaton reverse",
            "bound", "cell", "cone",
            "coxeter bound", "coxeter build", "coxeter cell", "coxeter cone", "coxeter probe-spherical",
            *(f"coxeter closed-form {family}" for family in ("b", "bt", "ct", "dihedral", "f4", "ft4", "gt2", "nonneg")),
        ]
    )
