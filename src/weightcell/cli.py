"""Command-line interface.

Exit codes: 0 success, 2 input validation, 3 resource cap exceeded,
4 mathematical precondition violated (e.g. an unbounded weight function).
Failures emit a machine-readable JSON object on stderr.  All outputs are
deterministic: identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys as _sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import automata, cones, coxeter, weights
from .closedforms import affine_cone, bn_bound, dihedral_bound, f4_bound, spherical_nonneg
from .errors import InputError, PreconditionError, ResourceLimitError, UnboundedError, WeightcellError
from .limits import Caps

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


class _Cap(argparse.Action):
    """`--max-states N` and the like: override one `Caps` field (`const`)."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.caps = {**namespace.caps, self.const: value}


# --format (choices, default): offer only what the command writes
_REPORT = (("json", "text"), "text")
_WRITER = (("json", "dot"), "json")


def _build_parser() -> _Parser:
    """Every leaf command declares the options its handler reads and sets
    `run`, the handler, called as run(args, caps)."""
    parser = _Parser(prog="weightcell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, run, fmt=_REPORT, caps=("states", "cycles"), output=True, file=True, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(run=run, caps={}, output=None)  # no -o: stdout
        if file:
            p.add_argument("file")
        p.add_argument("--format", choices=fmt[0], default=fmt[1])
        if output:
            p.add_argument("-o", "--output")
        for field in caps:
            p.add_argument(f"--max-{field}", type=int, action=_Cap, const=field, dest="caps", metavar="N")
        return p

    auto = sub.add_parser("automaton", help="inspect and normalize automaton files")
    auto = auto.add_subparsers(dest="subcommand", required=True)
    leaf(auto, "info", _cmd_info, caps=("states",))
    leaf(auto, "min", _cmd_min, _WRITER, caps=("states",))
    leaf(auto, "enum", _cmd_enum, caps=("states", "words")).add_argument("--maxlen", type=int, required=True)
    leaf(auto, "reverse", _cmd_reverse, _WRITER, caps=("states",))

    leaf(sub, "cone", _cmd_cone, output=False, help="boundedness cone of an automaton's language")
    for name, run in (("bound", _cmd_bound), ("cell", partial(_cmd_bound, cell=True))):
        p = leaf(sub, name, run, output=False, help=f"{name} of a weight function on an automaton's language")
        p.add_argument("--phi", required=True)
        if name == "cell":
            p.add_argument("--out-prefix")

    cox = sub.add_parser("coxeter", help="pipeline from a Coxeter matrix file")
    cox = cox.add_subparsers(dest="subcommand", required=True)
    for name, run, fmt in (
        ("build", _cmd_build, _WRITER),
        ("cone", _cmd_coxeter_cone, _REPORT),
        ("bound", _cmd_group_bound, _REPORT),
        ("cell", partial(_cmd_group_bound, cell=True), _REPORT),
        ("probe-spherical", _cmd_probe, (("json", "text"), "json")),
    ):
        p = leaf(cox, name, run, fmt, ("states",) if name == "build" else ("states", "cycles"),
                 output=name != "probe-spherical")
        p.add_argument("--order", help="comma-separated generator order")
        p.add_argument("--lang", choices=("lex", "reduced"), default="lex")
        if name in ("bound", "cell"):
            p.add_argument("--phi", required=True)
        if name == "cell":
            p.add_argument("--out-prefix")
        if name == "probe-spherical":
            p.add_argument("--samples", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)

    families = cox.add_parser("closed-form").add_subparsers(dest="family", required=True)
    for name, size, params, run in (
        ("dihedral", "m", "ab",
         lambda args, caps: _report_formula(dihedral_bound(args.m, *_parameters(args)), args)),
        ("b", "n", "ab", lambda args, caps: _report_formula(bn_bound(args.n, *_parameters(args)), args)),
        ("f4", None, "ab", lambda args, caps: _report_formula(f4_bound(*_parameters(args), caps), args)),
        ("nonneg", None, None, _cmd_nonneg),  # the generators of --file
        ("bt", "n", "ab", _cmd_affine),
        ("ct", "n", "abc", _cmd_affine),
        ("ft4", None, "ab", _cmd_affine),
        ("gt2", None, "ab", _cmd_affine),
    ):
        p = leaf(families, name, run, caps=(), output=False, file=False)
        p.set_defaults(params=params, n=None)  # ft4 and gt2 take no rank
        p.add_argument("--phi", required=True, help="parameters, e.g. a=1,b=-1")
        if size:
            p.add_argument(f"--{size}", type=int, required=True)
        if name == "nonneg":
            p.add_argument("--file", required=True, help="Coxeter matrix file")

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _load_automaton(args, caps: Caps) -> automata.Automaton:
    return automata.from_json(_read(args.file), caps)


def _load_system(args) -> coxeter.CoxeterSystem:
    sys_ = coxeter.system_from_json(_read(args.file))
    if args.order:
        sys_ = sys_.reorder(tuple(name.strip() for name in args.order.split(",")))
    return sys_


def _emit(text: str, args) -> int:
    """Write `text` to the -o file, or to stdout; exit code 0."""
    if args.output:
        _write(args.output, text)
    else:
        _sys.stdout.write(text)
    return 0


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _report(doc, text: str, args) -> int:
    """Write `doc` as JSON for the json format, else `text`."""
    return _emit(_dump(doc) if args.format == "json" else text, args)


def _write_automaton(a: automata.Automaton, args) -> int:
    return _emit(automata.to_dot(a) if args.format == "dot" else automata.to_json(a), args)


# ---------------------------------------------------------------------------
# automaton subcommands
# ---------------------------------------------------------------------------


def _cmd_info(args, caps: Caps) -> int:
    a = _load_automaton(args, caps)
    trimmed = automata.trim(a)
    doc = {
        "alphabet": list(a.alphabet),
        "states": a.n_states,
        "transitions": len(a.transitions),
        "accept_states": len(a.accept),
        "deterministic": a.deterministic,
        "useful_states": trimmed.n_states if trimmed.accept else 0,
        "language_empty": not trimmed.accept,
    }
    text = "".join(f"{key}: {value}\n" for key, value in doc.items())
    return _report(doc, text, args)


def _cmd_enum(args, caps: Caps) -> int:
    a = _load_automaton(args, caps)
    words = automata.enumerate_words(a, args.maxlen, caps)
    text = "".join(a.format_word(w) + "\n" for w in words)
    return _report([list(a.word_names(w)) for w in words], text, args)


def _cmd_min(args, caps: Caps) -> int:
    return _write_automaton(automata.minimize(automata.determinize(_load_automaton(args, caps), caps)), args)


def _cmd_reverse(args, caps: Caps) -> int:
    return _write_automaton(automata.reverse(_load_automaton(args, caps)), args)


# ---------------------------------------------------------------------------
# cone / bound / cell on plain automata
# ---------------------------------------------------------------------------


def _cone_document(a: automata.Automaton, caps: Caps) -> tuple[dict, cones.HRep]:
    """The letter cone's document, and the raw cone it was reduced from."""
    raw = cones.HRep(len(a.alphabet), tuple(weights.boundedness_cone_vectors(a, caps)))
    irred, vrep = cones.describe(raw, caps)
    return {
        "dim": len(a.alphabet),
        "alphabet": list(a.alphabet),
        "raw_normals": [list(v) for v in raw.normals],
        "normals": [list(v) for v in irred.normals],
        "lineality": [list(v) for v in vrep.lineality],
        "rays": [list(v) for v in vrep.rays],
    }, raw


def _class_cone(sys_: coxeter.CoxeterSystem, raw: cones.HRep, caps: Caps):
    """Weight classes, and the letter cone restricted to class-constant
    weights: (classes, projected normals, irredundant normals, rays)."""
    classes = coxeter.weight_classes(sys_)
    projected = cones.project_parameters(raw, [list(g) for g in classes])
    return classes, projected, *cones.describe(projected, caps)


def _cone_text(doc) -> str:
    return (
        f"dimension: {doc['dim']} (letters {', '.join(doc['alphabet'])})\n"
        f"raw inequalities: {doc['raw_normals']}\n"
        f"irredundant inequalities: {doc['normals']}\n"
        f"lineality basis: {doc['lineality']}\n"
        f"extreme rays: {doc['rays']}\n"
    )


def _cmd_cone(args, caps: Caps) -> int:
    doc = _cone_document(_load_automaton(args, caps), caps)[0]
    return _report(doc, _cone_text(doc), args)


def _report_cell(a, result, args, cell: bool, extra=()) -> int:
    """Report the bound and witnesses of `result`, words spelled in `a`'s
    alphabet.  For a cell, first write the cell automata and name their
    files.  `extra` items end the JSON document."""
    witnesses = ", ".join(a.format_word(w) or "(empty)" for w in result.witnesses)
    doc = {
        "bound": str(result.bound),
        "witnesses": [list(a.word_names(w)) for w in result.witnesses],
    }
    text = f"bound: {result.bound}\nwitnesses: {witnesses}\n"
    if cell:
        prefix = args.out_prefix or Path(args.file).stem
        names = {
            "cell_raw": f"{prefix}-cell-raw.json",
            "cell_dfa": f"{prefix}-cell-dfa.json",
            "cell_dfa_dot": f"{prefix}-cell-dfa.dot",
        }
        _write(names["cell_raw"], automata.to_json(result.cell_nfa))
        _write(names["cell_dfa"], automata.to_json(result.cell_dfa))
        _write(names["cell_dfa_dot"], automata.to_dot(result.cell_dfa))
        doc.update(names)
        text += (
            f"cell automaton states: {result.cell_dfa.n_states}\n"
            f"files: {', '.join(names.values())}\n"
        )
    doc.update(extra)
    return _report(doc, text, args)


def _cmd_bound(args, caps: Caps, cell: bool = False) -> int:
    """`bound`, or `cell`, of a weight function on an automaton file."""
    a = _load_automaton(args, caps)
    phi = weights.parse_weights(args.phi, a.alphabet)
    return _report_cell(a, (weights.cell_automaton if cell else weights.bound)(a, phi, caps), args, cell)


# ---------------------------------------------------------------------------
# coxeter subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args, caps: Caps) -> int:
    return _write_automaton(coxeter.language_automaton(_load_system(args), args.lang, caps), args)


def _cmd_coxeter_cone(args, caps: Caps) -> int:
    sys_ = _load_system(args)
    letter_doc, raw = _cone_document(coxeter.language_automaton(sys_, args.lang, caps), caps)
    classes, projected, irred, vrep = _class_cone(sys_, raw, caps)
    p = {
        "classes": [[sys_.generators[i] for i in g] for g in classes],
        "normals": [list(v) for v in irred.normals],
        "raw_normals": [list(v) for v in projected.normals],
        "lineality": [list(v) for v in vrep.lineality],
        "rays": [list(v) for v in vrep.rays],
    }
    text = _cone_text(letter_doc) + (
        f"weight classes: {p['classes']}\n"
        f"class inequalities: {p['normals']}\n"
        f"class rays: {p['rays']} lineality: {p['lineality']}\n"
    )
    return _report({"letters": letter_doc, "parameters": p}, text, args)


def _cmd_group_bound(args, caps: Caps, cell: bool = False) -> int:
    """`coxeter bound`, or `coxeter cell`, of a group weight function."""
    sys_ = _load_system(args)
    phi = weights.parse_weights(args.phi, sys_.generators)
    result = coxeter.group_cell(sys_, phi, args.lang, caps)
    # one shortlex word per element, so distinct lex words count X and Y
    X, Y = (result.circuit_words, result.free_words) if args.lang == "lex" else (result.X, result.Y)
    return _report_cell(result.cell_dfa, result, args, cell, [("X_size", len(X)), ("Y_size", len(Y))])


def _parameters(args):
    """The closed-form family's parameter values, in the order of `args.params`
    (its parameter names as one string, such as "abc")."""
    return weights.parse_weights(args.phi, args.params).values


def _report_formula(result, args) -> int:
    doc = {
        "bound": str(result.bound),
        "cell": None if result.cell is None else list(result.cell_texts()),
    }
    cell_text = "(deferred to the generic machinery)" if result.cell is None else ", ".join(
        w or "(empty)" for w in result.cell_texts()
    )
    return _report(doc, f"bound: {result.bound}\ncell: {cell_text}\n", args)


def _cmd_nonneg(args, caps: Caps) -> int:
    sys_ = coxeter.system_from_json(_read(args.file))
    phi = weights.parse_weights(args.phi, sys_.generators)
    return _report_formula(spherical_nonneg(sys_, phi, caps), args)


def _cmd_affine(args, caps: Caps) -> int:
    spec = affine_cone(args.family, *_parameters(args), n=args.n)
    doc = {
        "family": spec.family,
        "rank": spec.rank,
        "params": [str(v) for v in spec.params],
        "normals": [list(v) for v in spec.normals],
        "all_normals": [list(v) for v in spec.all_normals],
        "rho": None if spec.rho is None else [str(v) for v in spec.rho],
        "rho_basis": spec.rho_basis,
    }
    text = (
        f"family: {spec.family}\nirredundant inequalities: {doc['normals']}\n"
        f"all inequalities: {doc['all_normals']}\nrho: {doc['rho']}\n"
    )
    return _report(doc, text, args)


def _cmd_probe(args, caps: Caps) -> int:
    """Sample bounded weight functions and report whether some witness lies
    in a finite standard parabolic subgroup.  Reports only; asserts nothing."""
    if args.samples < 0:
        raise InputError("--samples must be >= 0")
    sys_ = _load_system(args)
    a = coxeter.language_automaton(sys_, args.lang, caps)
    raw = cones.HRep(len(a.alphabet), tuple(weights.boundedness_cone_vectors(a, caps)))
    classes, _, _, vrep = _class_cone(sys_, raw, caps)
    if not raw.normals:  # a finite language: every sample is the zero weight
        vrep = cones.VRep(len(classes), (), ())
    rng = random.Random(args.seed)
    samples = []
    for _ in range(args.samples):
        values = [Fraction(0)] * len(classes)
        for ray in vrep.rays:
            lam = rng.randint(0, 6)
            values = [v + lam * r for v, r in zip(values, ray)]
        for line in vrep.lineality:
            mu = rng.randint(-6, 6)
            values = [v + mu * l for v, l in zip(values, line)]
        assignment = {}
        for group, value in zip(classes, values):
            for i in group:
                assignment[sys_.generators[i]] = value
        phi = weights.WeightVector.from_mapping(sys_.generators, assignment)
        result = weights.bound(a, phi, caps)
        witness_info = []
        for w in result.witnesses:
            support = tuple(sorted(set(w)))
            finite = coxeter.is_positive_definite(sys_, support, caps)
            witness_info.append(
                {"word": list(a.word_names(w)), "finite_parabolic_support": finite}
            )
        samples.append(
            {
                "phi": {name: str(assignment[name]) for name in sys_.generators},
                "bound": str(result.bound),
                "witnesses": witness_info,
                "some_witness_in_finite_parabolic": any(
                    w["finite_parabolic_support"] for w in witness_info
                ),
            }
        )
    text = "".join(
        f"sample {i}: phi={sample['phi']} bound={sample['bound']} "
        f"finite-parabolic witness: {sample['some_witness_in_finite_parabolic']}\n"
        for i, sample in enumerate(samples)
    )
    return _report({"language": args.lang, "samples": samples}, text, args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _error_doc(exc: WeightcellError) -> dict:
    doc = {"error": {"code": exc.exit_code, "type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, UnboundedError) and exc.word is not None:
        doc["error"]["violating_circuit"] = list(exc.word)
    if isinstance(exc, ResourceLimitError):
        doc["error"].update(stage=exc.what, cap=exc.cap)
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, Caps(**{**vars(Caps.from_env()), **args.caps}))
    except (InputError, ResourceLimitError, PreconditionError) as exc:
        _sys.stderr.write(_dump(_error_doc(exc)))
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
