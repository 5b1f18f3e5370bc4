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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import automata, cones, coxeter, weights
from .closedforms import affine_cone, bn_bound, dihedral_bound, f4_bound, spherical_nonneg
from .errors import InputError, PreconditionError, ResourceLimitError, UnboundedError, WeightcellError
from .limits import Caps

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="weightcell", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--max-states", type=int, default=None)
        p.add_argument("--max-cycles", type=int, default=None)

    def add_format(p, writer=False):
        # offer only what the command writes: an automaton as JSON or DOT, a report as text or JSON
        other = "dot" if writer else "text"
        p.add_argument("--format", choices=("json", other), default="json" if writer else other)

    auto = sub.add_parser("automaton", help="inspect and normalize automaton files")
    auto_sub = auto.add_subparsers(dest="subcommand", required=True)
    for name in ("info", "min", "enum", "reverse"):
        p = auto_sub.add_parser(name)
        p.add_argument("file")
        add_format(p, writer=name in ("min", "reverse"))
        p.add_argument("-o", "--output", default=None)
        add_caps(p)
        if name == "enum":
            p.add_argument("--maxlen", type=int, required=True)
            p.add_argument("--max-words", type=int, default=None)

    cone_p = sub.add_parser("cone", help="boundedness cone of an automaton's language")
    cone_p.add_argument("file")
    add_format(cone_p)
    add_caps(cone_p)

    for name in ("bound", "cell"):
        p = sub.add_parser(name, help=f"{name} of a weight function on an automaton's language")
        p.add_argument("file")
        p.add_argument("--phi", required=True)
        add_format(p)
        add_caps(p)
        if name == "cell":
            p.add_argument("--out-prefix", default=None)

    cox = sub.add_parser("coxeter", help="pipeline from a Coxeter matrix file")
    cox_sub = cox.add_subparsers(dest="subcommand", required=True)

    def add_cox_common(p, phi=False, writer=False):
        p.add_argument("file")
        p.add_argument("--order", default=None, help="comma-separated generator order")
        p.add_argument("--lang", choices=("lex", "reduced"), default="lex")
        add_format(p, writer)
        p.add_argument("-o", "--output", default=None)
        add_caps(p)
        if phi:
            p.add_argument("--phi", required=True)

    add_cox_common(cox_sub.add_parser("build"), writer=True)
    add_cox_common(cox_sub.add_parser("cone"))
    add_cox_common(cox_sub.add_parser("bound"), phi=True)
    cell_p = cox_sub.add_parser("cell")
    add_cox_common(cell_p, phi=True)
    cell_p.add_argument("--out-prefix", default=None)

    closed = cox_sub.add_parser("closed-form")
    closed.add_argument("family", choices=("dihedral", "b", "f4", "nonneg", "bt", "ct", "ft4", "gt2"))
    closed.add_argument("--phi", required=True, help="parameters, e.g. a=1,b=-1")
    closed.add_argument("--m", type=int, default=None)
    closed.add_argument("--n", type=int, default=None)
    closed.add_argument("--file", default=None, help="Coxeter matrix file (nonneg only)")
    add_format(closed)

    probe = cox_sub.add_parser("probe-spherical")
    probe.add_argument("file")
    probe.add_argument("--order", default=None)
    probe.add_argument("--lang", choices=("lex", "reduced"), default="lex")
    probe.add_argument("--samples", type=int, default=20)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--format", choices=("json", "text"), default="json")
    add_caps(probe)

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _caps(args) -> Caps:
    base = Caps.from_env()
    updates = {}
    if getattr(args, "max_states", None) is not None:
        updates["states"] = args.max_states
    if getattr(args, "max_cycles", None) is not None:
        updates["cycles"] = args.max_cycles
    if getattr(args, "max_words", None) is not None:
        updates["words"] = args.max_words
    return replace(base, **updates)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_system(args) -> coxeter.CoxeterSystem:
    sys_ = coxeter.system_from_json(_read(args.file))
    if getattr(args, "order", None):
        sys_ = sys_.reorder(tuple(name.strip() for name in args.order.split(",")))
    return sys_


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        _sys.stdout.write(text)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _report(doc, text: str, fmt: str, output: str | None) -> int:
    """Write `doc` as JSON for the json format, else `text`; exit code 0."""
    _emit(_dump(doc) if fmt == "json" else text, output)
    return 0


def _write_automaton(a: automata.Automaton, args) -> int:
    """Write `a` as JSON or DOT; exit code 0."""
    _emit(automata.to_dot(a) if args.format == "dot" else automata.to_json(a), args.output)
    return 0


# ---------------------------------------------------------------------------
# automaton subcommands
# ---------------------------------------------------------------------------


def _cmd_automaton(args) -> int:
    caps = _caps(args)
    a = automata.from_json(_read(args.file), caps)
    if args.subcommand == "info":
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
        return _report(doc, text, args.format, args.output)
    if args.subcommand == "enum":
        words = automata.enumerate_words(a, args.maxlen, caps)
        text = "".join(a.format_word(w) + "\n" for w in words)
        return _report([list(a.word_names(w)) for w in words], text, args.format, args.output)
    if args.subcommand == "min":
        return _write_automaton(automata.minimize(automata.determinize(a, caps)), args)
    return _write_automaton(automata.reverse(a), args)


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


def _cmd_cone(args) -> int:
    caps = _caps(args)
    doc = _cone_document(automata.from_json(_read(args.file), caps), caps)[0]
    return _report(doc, _cone_text(doc), args.format, None)


def _report_cell(a, result, args, extra=()) -> int:
    """Report the bound and witnesses of `result`, words spelled in `a`'s
    alphabet.  For `cell`, first write the cell automata and name their
    files.  `extra` items end the JSON document."""
    witnesses = ", ".join(a.format_word(w) or "(empty)" for w in result.witnesses)
    doc = {
        "bound": str(result.bound),
        "witnesses": [list(a.word_names(w)) for w in result.witnesses],
    }
    text = f"bound: {result.bound}\nwitnesses: {witnesses}\n"
    if getattr(args, "subcommand", args.command) == "cell":
        prefix = args.out_prefix or Path(args.file).stem
        names = {
            "cell_raw": f"{prefix}-cell-raw.json",
            "cell_dfa": f"{prefix}-cell-dfa.json",
            "cell_dfa_dot": f"{prefix}-cell-dfa.dot",
        }
        Path(names["cell_raw"]).write_text(automata.to_json(result.cell_nfa))
        Path(names["cell_dfa"]).write_text(automata.to_json(result.cell_dfa))
        Path(names["cell_dfa_dot"]).write_text(automata.to_dot(result.cell_dfa))
        doc.update(names)
        text += (
            f"cell automaton states: {result.cell_dfa.n_states}\n"
            f"files: {', '.join(names.values())}\n"
        )
    doc.update(extra)
    return _report(doc, text, args.format, getattr(args, "output", None))


def _cmd_weight(args) -> int:
    """`bound` and `cell` of a weight function on an automaton file."""
    caps = _caps(args)
    a = automata.from_json(_read(args.file), caps)
    phi = weights.parse_weights(args.phi, a.alphabet)
    compute = weights.cell_automaton if args.command == "cell" else weights.bound
    return _report_cell(a, compute(a, phi, caps), args)


# ---------------------------------------------------------------------------
# coxeter subcommands
# ---------------------------------------------------------------------------


def _cmd_coxeter(args) -> int:
    caps = _caps(args)
    if args.subcommand == "closed-form":
        return _cmd_closed_form(args, caps)
    sys_ = _load_system(args)
    if args.subcommand == "build":
        return _write_automaton(coxeter.language_automaton(sys_, args.lang, caps), args)
    if args.subcommand == "cone":
        a = coxeter.language_automaton(sys_, args.lang, caps)
        letter_doc, raw = _cone_document(a, caps)
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
        return _report({"letters": letter_doc, "parameters": p}, text, args.format, args.output)
    if args.subcommand in ("bound", "cell"):
        phi = weights.parse_weights(args.phi, sys_.generators)
        result = coxeter.group_cell(sys_, phi, args.lang, caps)
        # one shortlex word per element, so distinct lex words count X and Y
        X, Y = (result.circuit_words, result.free_words) if args.lang == "lex" else (result.X, result.Y)
        return _report_cell(result.cell_dfa, result, args, [("X_size", len(X)), ("Y_size", len(Y))])
    return _cmd_probe(args, sys_, caps)  # probe-spherical


def _cmd_closed_form(args, caps: Caps) -> int:
    family = args.family
    if family == "nonneg":
        if not args.file:
            raise InputError("closed-form nonneg needs --file with a Coxeter matrix")
        sys_ = coxeter.system_from_json(_read(args.file))
        names = sys_.generators
    else:
        names = ("a", "b", "c") if family == "ct" else ("a", "b")
    phi = weights.parse_weights(args.phi, names)
    if family == "dihedral":
        if args.m is None:
            raise InputError("the dihedral family needs --m")
        result = dihedral_bound(args.m, *phi.values)
    elif family == "b":
        if args.n is None:
            raise InputError("the b family needs --n")
        result = bn_bound(args.n, *phi.values)
    elif family == "f4":
        result = f4_bound(*phi.values, caps)
    elif family == "nonneg":
        result = spherical_nonneg(sys_, phi, caps)
    else:  # affine families
        spec = affine_cone(family, *phi.values, n=args.n)
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
        return _report(doc, text, args.format, None)
    doc = {
        "bound": str(result.bound),
        "cell": None if result.cell is None else list(result.cell_texts()),
    }
    cell_text = "(deferred to the generic machinery)" if result.cell is None else ", ".join(
        w or "(empty)" for w in result.cell_texts()
    )
    return _report(doc, f"bound: {result.bound}\ncell: {cell_text}\n", args.format, None)


def _cmd_probe(args, sys_, caps: Caps) -> int:
    """Sample bounded weight functions and report whether some witness lies
    in a finite standard parabolic subgroup.  Reports only; asserts nothing."""
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
    return _report({"language": args.lang, "samples": samples}, text, args.format, None)


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


_COMMANDS = {
    "automaton": _cmd_automaton,
    "cone": _cmd_cone,
    "bound": _cmd_weight,
    "cell": _cmd_weight,
    "coxeter": _cmd_coxeter,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, ResourceLimitError, PreconditionError) as exc:
        _sys.stderr.write(_dump(_error_doc(exc)))
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
