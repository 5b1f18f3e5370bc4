"""Golden CLI outputs: byte-for-byte stdout, stderr, exit code and written
files of a fixed command set.

`golden_cli.json` was recorded from the CLI before the cone engine moved
from an LP to double description; the README promises that identical
inputs give byte-identical outputs, and this test holds every later change
to that promise.  A case that changes here changes what users see.

To record again after an intended output change, run this file as a script
(`PYTHONPATH=src python tests/test_golden.py`); it rewrites the JSON next to
it.  Never do so to make a failing case pass.
"""

import json
import os
from pathlib import Path

import pytest

from weightcell.automata import reverse, to_json
from weightcell.cli import main

from conftest import triangle_246_shortlex_automaton, triangle_333_shortlex_automaton

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")


def _system(names, bonds):
    n = len(names)
    matrix = [[2] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = 1
    for (i, j), m in bonds.items():
        matrix[i][j] = matrix[j][i] = m
    return json.dumps({"generators": list(names), "matrix": matrix})


def _triangle(p, q, r):
    """(su)^p = (st)^q = (tu)^r = 1."""
    return _system(("s", "t", "u"), {(0, 2): p, (0, 1): q, (1, 2): r})


# Input files, written into the working directory of each case.
INPUTS = {
    "fig246.json": lambda: to_json(triangle_246_shortlex_automaton()),
    "fig333.json": lambda: to_json(triangle_333_shortlex_automaton()),
    "t246.json": lambda: _triangle(2, 4, 6),
    "t345.json": lambda: _triangle(3, 4, 5),
    "t2711.json": lambda: _triangle(2, 7, 11),
    # [3, inf, 3]: rank 4 chain with an infinite middle bond (0 is infinite)
    "c303.json": lambda: _system(("s0", "s1", "s2", "s3"), {(0, 1): 3, (1, 2): 0, (2, 3): 3}),
    "t237.json": lambda: _triangle(2, 3, 7),
    "h4.json": lambda: _system(("s0", "s1", "s2", "s3"), {(0, 1): 5, (1, 2): 3, (2, 3): 3}),
    # affine B3: s0 and s1 both bonded 3 to s2, then a bond 4
    "b3t.json": lambda: _system(("s0", "s1", "s2", "s3"), {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    # finite B3: the chain s0 -3- s1 -4- s2
    "b3.json": lambda: _system(("s0", "s1", "s2"), {(0, 1): 3, (1, 2): 4}),
    # an NFA: the reversal of the (2,4,6) shortlex DFA
    "rev246.json": lambda: to_json(reverse(triangle_246_shortlex_automaton())),
}

# name -> (argv, files the command writes).  "c303-reduced.json" is the
# reduced-word DFA of [3, inf, 3] exported by `coxeter build` first.
CASES = {
    "cone-fig246-text": (["cone", "fig246.json"], []),
    "cone-fig246-json": (["cone", "fig246.json", "--format", "json"], []),
    "cone-c303-reduced-dfa": (["cone", "c303-reduced.json", "--format", "json"], []),
    "coxeter-cone-2711-lex": (["coxeter", "cone", "t2711.json", "--format", "json"], []),
    "coxeter-cone-345-reduced": (["coxeter", "cone", "t345.json", "--lang", "reduced"], []),
    "coxeter-bound-246-text": (["coxeter", "bound", "t246.json", "--phi", "s=-1,t=1,u=-1"], []),
    "coxeter-bound-246-json": (
        ["coxeter", "bound", "t246.json", "--phi", "s=-1,t=1,u=-1", "--format", "json"],
        [],
    ),
    "coxeter-cell-246-json": (
        [
            "coxeter", "cell", "t246.json", "--phi", "s=-1,t=1,u=-1",
            "--out-prefix", "g246", "--format", "json",
        ],
        ["g246-cell-raw.json", "g246-cell-dfa.json", "g246-cell-dfa.dot"],
    ),
    "coxeter-cell-246-text": (
        ["coxeter", "cell", "t246.json", "--phi", "s=-1,t=1,u=-1", "--out-prefix", "g246"],
        [],
    ),
    "bound-unbounded-333": (["bound", "fig333.json", "--phi", "s=1,t=1,u=1"], []),
    "automaton-min-rev246": (["automaton", "min", "rev246.json"], []),
    "coxeter-build-h4-lex": (["coxeter", "build", "h4.json", "--lang", "lex"], []),
    "coxeter-build-237-lex-order": (
        ["coxeter", "build", "t237.json", "--lang", "lex", "--order", "u,t,s"],
        [],
    ),
    "coxeter-build-b3t-reduced": (["coxeter", "build", "b3t.json", "--lang", "reduced"], []),
    "closed-form-f4-text": (["coxeter", "closed-form", "f4", "--phi", "a=1,b=-1"], []),
    "closed-form-f4-json": (
        ["coxeter", "closed-form", "f4", "--phi", "a=2,b=-1", "--format", "json"],
        [],
    ),
    # the weight class {s0, s1} at 0: the cell is a coset of the parabolic W_{s0,s1}
    "closed-form-nonneg-b3": (
        ["coxeter", "closed-form", "nonneg", "--file", "b3.json", "--phi", "s0=0,s1=0,s2=1"],
        [],
    ),
    # every witness's support is checked for a finite parabolic subgroup
    "probe-spherical-246": (
        ["coxeter", "probe-spherical", "t246.json", "--samples", "4", "--seed", "1", "--format", "json"],
        [],
    ),
    "probe-spherical-246-text": (
        ["coxeter", "probe-spherical", "t246.json", "--samples", "3", "--seed", "2", "--format", "text"],
        [],
    ),
    "automaton-info-fig246-text": (["automaton", "info", "fig246.json"], []),
    "automaton-info-rev246-json": (["automaton", "info", "rev246.json", "--format", "json"], []),
    "automaton-enum-fig246-text": (["automaton", "enum", "fig246.json", "--maxlen", "3"], []),
    "automaton-enum-fig246-json": (
        ["automaton", "enum", "fig246.json", "--maxlen", "2", "--format", "json"],
        [],
    ),
    "bound-fig246-text": (["bound", "fig246.json", "--phi", "s=1,t=2,u=-5"], []),
    "bound-fig246-json": (["bound", "fig246.json", "--phi", "s=1,t=2,u=-5", "--format", "json"], []),
    # no --out-prefix: the files are named after the input file
    "cell-fig246-json": (
        ["cell", "fig246.json", "--phi", "s=1,t=2,u=-5", "--format", "json"],
        ["fig246-cell-raw.json", "fig246-cell-dfa.json", "fig246-cell-dfa.dot"],
    ),
    "cell-fig246-text": (
        ["cell", "fig246.json", "--phi", "s=1,t=2,u=-5", "--out-prefix", "c246"],
        ["c246-cell-raw.json", "c246-cell-dfa.json", "c246-cell-dfa.dot"],
    ),
    # b < 0 < a, the mirror of the a < 0 < b branch: a + b > 0, then a + b = 0
    "closed-form-dihedral-text": (["coxeter", "closed-form", "dihedral", "--m", "3", "--phi", "a=2,b=-1"], []),
    "closed-form-dihedral-json": (
        ["coxeter", "closed-form", "dihedral", "--m", "3", "--phi", "a=1,b=-1", "--format", "json"],
        [],
    ),
    "closed-form-b-text": (["coxeter", "closed-form", "b", "--n", "3", "--phi", "a=1,b=-1"], []),
    # a zero parameter leaves the cell to the generic machinery
    "closed-form-b-deferred-text": (["coxeter", "closed-form", "b", "--n", "3", "--phi", "a=0,b=1"], []),
    "closed-form-b-deferred-json": (
        ["coxeter", "closed-form", "b", "--n", "3", "--phi", "a=0,b=1", "--format", "json"],
        [],
    ),
    "closed-form-ct-text": (["coxeter", "closed-form", "ct", "--n", "3", "--phi", "a=1,b=-1,c=2"], []),
    "closed-form-ct-json": (
        ["coxeter", "closed-form", "ct", "--n", "3", "--phi", "a=1,b=-1,c=2", "--format", "json"],
        [],
    ),
    # the automaton writers: reverse in its default format, DOT from min and build
    "automaton-reverse-fig246-default": (["automaton", "reverse", "fig246.json"], []),
    "automaton-min-rev246-dot": (["automaton", "min", "rev246.json", "--format", "dot"], []),
    "coxeter-build-246-dot": (["coxeter", "build", "t246.json", "--format", "dot"], []),
    # -o takes the document, and stdout stays empty
    "coxeter-cone-246-json-output": (
        ["coxeter", "cone", "t246.json", "--format", "json", "-o", "cone246.json"],
        ["cone246.json"],
    ),
    # a > 0 > b at rank 6, and a < 0 < b at rank 12
    "closed-form-b6-text": (["coxeter", "closed-form", "b", "--n", "6", "--phi", "a=1,b=-2"], []),
    "closed-form-b12-json": (
        ["coxeter", "closed-form", "b", "--n", "12", "--phi", "a=-1,b=6", "--format", "json"],
        [],
    ),
}


def _run_case(name, capsys):
    for file, make in INPUTS.items():
        Path(file).write_text(make())
    argv, written = CASES[name]
    if "c303-reduced.json" in argv:
        build = ["coxeter", "build", "c303.json", "--lang", "reduced", "--format", "json"]
        assert main(build + ["-o", "c303-reduced.json"]) == 0
        capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return {
        "argv": argv,
        "code": code,
        "stdout": captured.out,
        "stderr": captured.err,
        "files": {f: Path(f).read_text() for f in written},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_case(name, capsys)
    want = golden[name]
    assert got["argv"] == want["argv"]
    assert got["code"] == want["code"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    assert got["files"] == want["files"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    class _Capture:
        """Enough of pytest's capsys to record outside pytest."""

        def readouterr(self):
            out, err = self.out.getvalue(), self.err.getvalue()
            self.out.seek(0), self.out.truncate(), self.err.seek(0), self.err.truncate()
            return type("Captured", (), {"out": out, "err": err})

    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            capture = _Capture()
            capture.out, capture.err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(capture.out), contextlib.redirect_stderr(capture.err):
                recorded[case] = _run_case(case, capture)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
