"""The three workloads: inputs drawn from a seed, the ops, and their checks.

Every round of a workload has the same op mix; the seed draws only the
parameters (weights, words, generator orders).  A run executes whole rounds,
so runs with different seeds measure the same kinds of work.  Ops never
repeat a call within one process, so no op is a bare lru_cache lookup.

cli-oneshot   run.py starts each op as a fresh `python -m weightcell.cli`
              process and checks its output against reference automata.
weight-sweep  one worker process (worker.py) runs bound / cell_automaton /
group-arith   is_bounded, or natural_map + lex_word / ball / closed forms,
              and checks each result in process, outside the timed call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import checks
import systems

DEFAULT_SEED = 0


def rng(seed, *tags) -> random.Random:
    """A generator fixed by the seed and the tags (string seeding is stable
    across processes and Python versions)."""
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def _dot(n, x):
    return sum(a * b for a, b in zip(n, x))


def cone_point(r, cone, dim):
    """A nonzero integer point of the cone: nonnegative ray combination plus
    any lineality combination (for a finite group the cone is everything)."""
    while True:
        point = [0] * dim
        for ray in cone["rays"]:
            lam = r.randint(0, 5)
            point = [p + lam * x for p, x in zip(point, ray)]
        for line in cone["lineality"]:
            mu = r.randint(-5, 5)
            point = [p + mu * x for p, x in zip(point, line)]
        if any(point):
            return tuple(point)


def outside_point(r, cone, dim):
    """A small integer vector outside the cone (some circuit weighs > 0)."""
    while True:
        point = tuple(r.randint(-3, 3) for _ in range(dim))
        if any(_dot(n, point) > 0 for n in cone["normals"]):
            return point


def fresh(r, seen, draw, attempts=10_000):
    """draw(r) until the value is new to `seen` (then record it)."""
    for _ in range(attempts):
        value = draw(r)
        if value not in seen:
            seen.add(value)
            return value
    raise RuntimeError(f"no new input after {attempts} draws, last {value}")


def reduced_word(r, a, length):
    """A random reduced word of exactly `length` letters: the reverse of a
    uniformly drawn word of that length of the shortlex DFA `a` (the reverse
    of a reduced word is a reduced word of the inverse element)."""
    edges: dict[int, list] = {}
    for src, letter, dst in a.transitions:
        edges.setdefault(src, []).append((letter, dst))
    count = [[1] * a.n_states]  # count[k][q]: words of length k from state q
    for k in range(1, length + 1):
        count.append([sum(count[k - 1][d] for _, d in edges.get(q, ())) for q in range(a.n_states)])
    state, word = a.start, []
    for k in range(length, 0, -1):
        pick = r.randrange(count[k][state])
        for letter, dst in edges[state]:
            if pick < count[k - 1][dst]:
                word.append(letter)
                state = dst
                break
            pick -= count[k - 1][dst]
    return tuple(reversed(word))


def phi_text(names, values) -> str:
    return ",".join(f"{n}={v}" for n, v in zip(names, values))


def class_values(name, class_point):
    """Letter weights of a group weight function given per weight class."""
    values = [0] * len(systems.SYSTEMS[name][0])
    for cls, v in zip(systems.weight_classes(name), class_point):
        for i in cls:
            values[i] = v
    return tuple(values)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cone_of(vectors, dim):
    from weightcell import cones

    irredundant = cones.remove_redundant(cones.HRep(dim, tuple(vectors)))
    v = cones.extreme_rays(irredundant)
    return {"normals": [list(n) for n in vectors], "rays": [list(x) for x in v.rays],
            "lineality": [list(x) for x in v.lineality]}


def _system(name):
    from weightcell import coxeter

    return coxeter.system_from_json(systems.system_json(name))


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

CLI_SYSTEMS = ("H4", "D5t", "F4t", "T2711", "T345", "F4", "B3t")
BUILD_DEPTH = 4  # build outputs are compared with the ball of this radius


def cli_setup(workdir) -> dict:
    """Write the Coxeter files and the two exported automata the file ops
    read, and the cones that valid weights are drawn from."""
    from weightcell import automata, cones, coxeter, weights

    for name in CLI_SYSTEMS:
        (workdir / f"{name}.json").write_text(systems.system_json(name))
    c4 = coxeter.language_automaton(_system("C4t"), "lex")
    (workdir / "C4t-lex.json").write_text(automata.to_json(c4))
    c303 = coxeter.language_automaton(_system("C303"), "reduced")
    (workdir / "C303-reduced.json").write_text(automata.to_json(c303))
    b3 = coxeter.language_automaton(_system("B3t"), "lex")
    classes = [list(c) for c in coxeter.weight_classes(_system("B3t"))]
    raw = cones.HRep(len(b3.alphabet), tuple(weights.boundedness_cone_vectors(b3)))
    projected = cones.project_parameters(raw, classes)
    return {
        "C4t": _cone_of(weights.boundedness_cone_vectors(c4), len(c4.alphabet)),
        "B3t": _cone_of(projected.normals, len(classes)),
    }


def cli_ops(seed, round_, cones) -> list[dict]:
    """One round of CLI ops.  argv follows `weightcell`; `values` are the
    letter weights the check needs."""
    r = rng(seed, "cli", round_)
    tag = f"r{round_}"
    c4_names = systems.SYSTEMS["C4t"][0]
    f4 = class_values("F4", (r.choice([-3, -2, -1, 1, 2, 3]), r.choice([-3, -2, -1, 1, 2, 3])))
    b3_in = class_values("B3t", cone_point(r, cones["B3t"], 2))
    b3_out = class_values("B3t", outside_point(r, cones["B3t"], 2))
    c4_in = cone_point(r, cones["C4t"], 5)
    c4_cell = cone_point(r, cones["C4t"], 5)
    c4_out = outside_point(r, cones["C4t"], 5)
    def signed(*patterns):  # (a, b) with the given signs, so the cell is computed
        return [(sa * r.randint(1, 9), sb * r.randint(1, 9)) for sa, sb in patterns]

    f4_params = signed((1, -1), (-1, 1), (1, 1))
    b5_params = signed((1, 1), (-1, 1))
    dihedral_params = [(r.randint(3, 6), a, b) for a, b in signed((1, -1), (-1, 1))]
    # Two more calls each of f4 and dihedral, drawn after the others so that
    # the golden ops keep their inputs: the median op (the 12th of 23) and
    # the tail (the 13th) then fall inside the six ops of about 0.7 s
    # (closed-form f4 and build H4), not on the gap above them.
    f4_params += signed((1, -1), (-1, 1))
    dihedral_params += [(r.randint(3, 6), a, b) for a, b in signed((1, -1), (-1, 1))]
    b3_names = systems.SYSTEMS["B3t"][0]
    ops = [
        *(
            {"id": f"{tag}.build-{n}", "kind": "build", "system": n,
             "argv": ["coxeter", "build", f"{n}.json", "--lang", "lex"]}
            for n in ("H4", "D5t", "F4t")
        ),
        {"id": f"{tag}.cone-T2711", "kind": "coxeter-cone",
         "argv": ["coxeter", "cone", "T2711.json", "--lang", "lex", "--format", "json"]},
        {"id": f"{tag}.cone-T345", "kind": "coxeter-cone",
         "argv": ["coxeter", "cone", "T345.json", "--lang", "reduced", "--format", "json"]},
        {"id": f"{tag}.cone-C303", "kind": "cone",
         "argv": ["cone", "C303-reduced.json", "--format", "json"]},
        {"id": f"{tag}.bound-F4", "kind": "bound", "dfa": "F4", "values": f4,
         "argv": ["coxeter", "bound", "F4.json", "--format", "json",
                  "--phi", phi_text(systems.SYSTEMS["F4"][0], f4)]},
        {"id": f"{tag}.cell-B3t", "kind": "cell", "dfa": "B3t", "values": b3_in,
         "argv": ["coxeter", "cell", "B3t.json", "--format", "json",
                  "--phi", phi_text(b3_names, b3_in), "--out-prefix", f"{tag}-B3t"]},
        {"id": f"{tag}.unbounded-B3t", "kind": "unbounded", "dfa": "B3t", "values": b3_out,
         "argv": ["coxeter", "bound", "B3t.json", "--phi", phi_text(b3_names, b3_out)]},
        *(
            {"id": f"{tag}.closed-f4-{i}", "kind": "closed", "dfa": "F4", "values": (a, a, b, b),
             "argv": ["coxeter", "closed-form", "f4", "--phi", f"a={a},b={b}", "--format", "json"]}
            for i, (a, b) in enumerate(f4_params)
        ),
        *(
            {"id": f"{tag}.closed-b5-{i}", "kind": "closed", "dfa": "B5", "values": (a, a, a, a, b),
             "argv": ["coxeter", "closed-form", "b", "--n", "5", "--phi", f"a={a},b={b}", "--format", "json"]}
            for i, (a, b) in enumerate(b5_params)
        ),
        *(
            {"id": f"{tag}.closed-dihedral-{i}", "kind": "closed", "dfa": f"I2_{2 * m}", "values": (a, b),
             "argv": ["coxeter", "closed-form", "dihedral", "--m", str(m), "--phi", f"a={a},b={b}",
                      "--format", "json"]}
            for i, (m, a, b) in enumerate(dihedral_params)
        ),
        {"id": f"{tag}.bound-C4t", "kind": "bound", "dfa": "C4t", "values": c4_in,
         "argv": ["bound", "C4t-lex.json", "--format", "json", "--phi", phi_text(c4_names, c4_in)]},
        {"id": f"{tag}.cell-C4t", "kind": "cell", "dfa": "C4t", "values": c4_cell,
         "argv": ["cell", "C4t-lex.json", "--format", "json", "--phi", phi_text(c4_names, c4_cell),
                  "--out-prefix", f"{tag}-C4t"]},
        {"id": f"{tag}.unbounded-C4t", "kind": "unbounded", "dfa": "C4t", "values": c4_out,
         "argv": ["bound", "C4t-lex.json", "--phi", phi_text(c4_names, c4_out)]},
    ]
    r.shuffle(ops)
    return ops


class CliReferences:
    """Reference automata for the CLI checks, built on first use."""

    def __init__(self, workdir):
        self.workdir = workdir
        self._dfas = {}
        self._balls = {}

    def dfa(self, name):
        if name not in self._dfas:
            from weightcell import automata, coxeter

            if name == "C4t":
                self._dfas[name] = automata.from_json((self.workdir / "C4t-lex.json").read_text())
            else:
                self._dfas[name] = coxeter.language_automaton(_system(name), "lex")
        return self._dfas[name]

    def ball_words(self, name):
        if name not in self._balls:
            from weightcell import coxeter

            self._balls[name] = set(coxeter.ball(_system(name), BUILD_DEPTH).values())
        return self._balls[name]


def _words(a, names):
    return [tuple(a.alphabet.index(x) for x in w) for w in names]


def check_cli(op, rc, stdout, stderr, refs, golden) -> str | None:
    """Check one CLI op's exit code and output; `golden` maps op ids to
    stdout digests (None when the seed has no golden digests)."""
    from weightcell import automata

    kind = op["kind"]
    if kind == "unbounded":
        if rc != 4:
            return f"exit {rc}, expected 4: {stderr[-200:]}"
        a = refs.dfa(op["dfa"])
        circuit = json.loads(stderr)["error"]["violating_circuit"]
        return checks.check_unbounded(a, op["values"], _words(a, [circuit])[0])
    if rc != 0:
        return f"exit {rc}: {stderr[-200:]}"
    if golden is not None and op["id"] in golden and golden[op["id"]] != digest(stdout):
        return "stdout differs from the golden digest"
    if kind == "build":
        a = automata.from_json(stdout)
        if not a.deterministic:
            return "the automaton is not deterministic"
        if checks.words_upto(a, BUILD_DEPTH) != {
            tuple(w) for w in refs.ball_words(op["system"])
        }:
            return f"accepted words up to length {BUILD_DEPTH} are not the shortlex normal forms"
        return None
    doc = json.loads(stdout)
    if kind == "coxeter-cone":
        return checks.check_cone(doc["letters"]) or checks.check_cone(doc["parameters"])
    if kind == "cone":
        return checks.check_cone(doc)
    a = refs.dfa(op["dfa"])
    bound = Fraction(doc["bound"])
    if kind == "closed":
        cell = None if doc["cell"] is None else [a.word(w) for w in doc["cell"]]
        return checks.check_finite_bound(a, op["values"], bound, cell)
    witnesses = _words(a, doc["witnesses"])
    if kind == "bound":
        return checks.check_bound(a, op["values"], bound, witnesses)
    cell = automata.from_json((refs.workdir / doc["cell_dfa"]).read_text())
    return checks.check_cell(a, cell, op["values"], bound, witnesses)


# ---------------------------------------------------------------------------
# In-process workloads.  inputs(round) draws the round's inputs (plain data);
# ops(round) turns them into (id, call, check), where check(result, error)
# returns None or the reason the op failed.
# ---------------------------------------------------------------------------


def _expect(error, result_check):
    if error is not None:
        return f"{type(error).__name__}: {error}"
    return result_check()


class WeightSweep:
    """bound / cell_automaton / is_bounded on eight language DFAs.

    Per DFA and round: `inside` bound or cell_automaton ops (alternating,
    from a seeded start) on weights drawn inside the cone, one is_bounded,
    and, on an infinite group, `raw` bound or cell ops on small integer
    vectors outside the cone, which must raise UnboundedError.  Raw ops are
    a quarter of the round, as in a sweep over raw parameter vectors.

    The counts place the median and the tail inside clusters of similar
    ops.  The 34 raw and is_bounded ops take about 1 ms each, so the median
    falls among the 36 (2,4,6) and (4,4,4) ops of 0.05 to 0.12 s.  The tail,
    the 11th op from the top, falls among the 8 G~2 and 20 (2,3,7) ops of
    0.12 to 0.3 s, above which sit only the five H4, B~4, C~4 and B4 ops of
    0.6 to 5 s.  The round runs in shuffled order, so each kind of op is sampled
    across the whole run rather than in one stretch of it."""

    TARGETS = (  # (system, language, inside, raw)
        ("T246", "reduced", 22, 6),
        ("T237", "reduced", 20, 6),
        ("T444", "reduced", 14, 5),
        ("G2t", "reduced", 8, 4),
        ("B4", "reduced", 1, 0),
        ("H4", "lex", 2, 0),
        ("B4t", "lex", 1, 3),
        ("C4t", "lex", 1, 2),
    )

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()

    def setup(self):
        """The language DFAs and their cones (the cones are where the
        weights are drawn from)."""
        from weightcell import coxeter, weights

        self.dfas, self.cones = {}, {}
        for name, lang, _, _ in self.TARGETS:
            a = coxeter.language_automaton(_system(name), lang)
            self.dfas[name] = a
            self.cones[name] = _cone_of(weights.boundedness_cone_vectors(a), len(a.alphabet))

    def inputs(self, round_):
        out = []
        for name, _, inside, raw in self.TARGETS:
            cone, dim = self.cones[name], len(systems.SYSTEMS[name][0])
            r = rng(self.seed, "ws", round_, name)
            engine = ("bound", "cell_automaton")
            first = r.randrange(2)
            kinds = [(engine[(first + i) % 2], False) for i in range(inside)] + [("is_bounded", False)]
            if cone["normals"]:
                kinds += [(engine[(first + i + 1) % 2], True) for i in range(raw)]
            for i, (kind, is_raw) in enumerate(kinds):
                draw = outside_point if is_raw else cone_point
                values = fresh(r, self.seen, lambda r: (name, kind, draw(r, cone, dim)))[2]
                out.append({"id": f"r{round_}.{name}.{kind}{'.raw' if is_raw else ''}.{i}",
                            "dfa": name, "kind": kind, "raw": is_raw, "values": values})
        rng(self.seed, "ws-order", round_).shuffle(out)
        return out

    def ops(self, round_):
        from weightcell import weights

        for op in self.inputs(round_):
            a = self.dfas[op["dfa"]]
            phi = weights.WeightVector(a.alphabet, op["values"])
            call = lambda fn=getattr(weights, op["kind"]), phi=phi, a=a: fn(a, phi)
            yield op["id"], call, self._check(a, op["kind"], op["raw"], op["values"])

    @staticmethod
    def _check(a, kind, raw, values):
        def check(result, error):
            if raw:
                if type(error).__name__ != "UnboundedError":
                    return f"expected UnboundedError, got {error!r}"
                return checks.check_unbounded(a, values, _words(a, [error.word])[0])
            if kind == "is_bounded":
                return _expect(error, lambda: None if result.bounded and all(
                    _dot(n, values) <= 0 for n in result.inequalities
                ) else "a weight inside the cone is reported unbounded")
            if kind == "bound":
                return _expect(error, lambda: checks.check_bound(
                    a, values, result.bound, result.witnesses))
            return _expect(error, lambda: checks.check_cell(
                a, result.cell_dfa, values, result.bound, result.witnesses))

        return check


class GroupArith:
    """Group arithmetic over the cyclotomic fields.

    Per round: natural_map then lex_word on random reduced words in seven
    systems; one ball per system; and calls of f4_bound, bn_bound(5, ...)
    and spherical_nonneg on H4.  Reduced words make an op's cost depend on
    its length, not on how much a random word happens to cancel.

    The counts place the median and the tail inside clusters of similar
    ops.  The median falls among the 24 words of length 18 in H4 and
    [3,5,3]: the 33 words in F4, D~5, F~4 and of length 12 are cheaper,
    and 32 ops are dearer.  f4_bound costs the same on every call (it
    recomputes fixed normal forms), and with spherical_nonneg it makes the
    13 ops of 0.4 to 0.6 s around the tail, the 11th op from the top; above
    them sit only the (2,7,11) word (1 to 2 s, one of length 12) and at
    times the (3,4,5) word of length 18.  Balls take radii that keep them
    below the tail.
    Round 0 takes the balls in the declared generator order, later rounds
    in other orders, so no (system, radius) key repeats in one process."""

    WORDS = (  # (system, word lengths)
        ("T2711", (12,)),
        ("T345", (12, 18)),
        ("H4", (12, 18, 18, 18, 18, 24) * 3),
        ("F4t", (12, 18, 24) * 3),
        ("D5t", (12, 18, 24) * 3),
        ("H353", (12, 18, 18, 18, 18, 24) * 3),
        ("F4", (10, 12, 14) * 3),  # F4 has few elements of length near 24
    )
    BALLS = (("F4", 7), ("T345", 4), ("H4", 5), ("F4t", 5), ("D5t", 4), ("T2711", 3), ("H353", 5))
    CLOSED_FORMS = (("f4_bound", 10), ("bn_bound", 3), ("spherical_nonneg", 3))  # calls per round
    SPOT_CHECKS = 4  # ball entries whose matrix is recomputed from the word

    def __init__(self, seed):
        self.seed = seed
        self.seen = set()

    def setup(self):
        """Shortlex DFAs for the checks, and a first product in each field."""
        from weightcell import coxeter

        self.sys, self.dfas = {}, {}
        for name in (*(n for n, _ in self.WORDS), "B5"):
            self.sys[name] = _system(name)
            self.dfas[name] = coxeter.language_automaton(self.sys[name], "lex")
            coxeter.lex_word(self.sys[name], coxeter.natural_map(self.sys[name], (0, 1, 0)))

    def _order(self, name, round_):
        """Generator order of the balls in this round, and the radius bump
        once every order has been used."""
        names = systems.SYSTEMS[name][0]
        others = [p for p in itertools.permutations(names) if p != names]
        rng(self.seed, "ga-order", name).shuffle(others)
        orders = [names, *others]
        return orders[round_ % len(orders)], round_ // len(orders)

    def inputs(self, round_):
        r = rng(self.seed, "ga", round_)
        out = []
        for name, lengths in self.WORDS:
            for i, length in enumerate(lengths):
                draw = lambda r: ("word", name, reduced_word(r, self.dfas[name], length))
                out.append({"id": f"r{round_}.word-{name}-{length}.{i}", "op": "word", "system": name,
                            "word": fresh(r, self.seen, draw)[2]})
        for name, radius in self.BALLS:
            order, bump = self._order(name, round_)
            out.append({"id": f"r{round_}.ball-{name}-{radius + bump}", "op": "ball", "system": name,
                        "order": order, "radius": radius + bump})
        nonzero = [v for v in range(-30, 31) if v]
        for op, calls in self.CLOSED_FORMS:
            for i in range(calls):
                if op == "spherical_nonneg":
                    c = fresh(r, self.seen, lambda r: ("nonneg", r.randint(1, 999)))[1]
                    out.append({"id": f"r{round_}.{op}-{i}", "op": op, "c": c})
                else:
                    a, b = fresh(r, self.seen, lambda r: (op, r.choice(nonzero), r.choice(nonzero)))[1:]
                    out.append({"id": f"r{round_}.{op}-{i}", "op": op, "a": a, "b": b})
        r.shuffle(out)
        return out

    def ops(self, round_):
        from weightcell import closedforms, coxeter

        for op in self.inputs(round_):
            kind = op["op"]
            if kind == "word":
                sys_, word = self.sys[op["system"]], op["word"]

                def call(sys_=sys_, word=word):
                    g = coxeter.natural_map(sys_, word)
                    return g, coxeter.lex_word(sys_, g)

                check = self._word_check(op["system"], word)
            elif kind == "ball":
                sys_ = self.sys[op["system"]].reorder(op["order"])
                call = lambda sys_=sys_, radius=op["radius"]: coxeter.ball(sys_, radius)
                check = self._ball_check(op["system"], sys_, op["radius"])
            elif kind == "f4_bound":
                call = lambda a=op["a"], b=op["b"]: closedforms.f4_bound(a, b)
                check = self._closed_check("F4", (op["a"], op["a"], op["b"], op["b"]))
            elif kind == "bn_bound":
                call = lambda a=op["a"], b=op["b"]: closedforms.bn_bound(5, a, b)
                check = self._closed_check("B5", (op["a"],) * 4 + (op["b"],))
            else:
                phi = {g: op["c"] for g in self.sys["H4"].generators}
                call = lambda phi=phi: closedforms.spherical_nonneg(self.sys["H4"], phi)
                check = self._closed_check("H4", (op["c"],) * 4)
            yield op["id"], call, check

    def _word_check(self, name, word):
        from weightcell import coxeter

        def check(result, error):
            def verify():
                g, normal = result
                if len(normal) != len(word):
                    return f"normal form {normal} is not as long as the reduced word {word}"
                if not checks.accepts(self.dfas[name], normal):
                    return f"{normal} is not a shortlex normal form"
                if coxeter.natural_map(self.sys[name], normal).mat != g.mat:
                    return f"{normal} is a different element than {word}"
                return None

            return _expect(error, verify)

        return check

    def _ball_check(self, name, sys_, radius):
        from weightcell import coxeter

        def check(result, error):
            def verify():
                words = list(result.values())
                if len(set(words)) != len(words) or any(len(w) > radius for w in words):
                    return "ball words repeat or are too long"
                expected = checks.count_words_upto(self.dfas[name], radius)
                if len(words) != expected:
                    return f"ball has {len(words)} elements, expected {expected}"
                if sys_ == self.sys[name] and set(words) != checks.words_upto(self.dfas[name], radius):
                    return "ball words are not the shortlex normal forms"
                items = list(result.items())
                for g, w in items[:: max(1, len(items) // self.SPOT_CHECKS)]:
                    if coxeter.natural_map(sys_, w).mat != g.mat:
                        return f"ball word {w} is not the word of its element"
                return None

            return _expect(error, verify)

        return check

    def _closed_check(self, name, values):
        def check(result, error):
            return _expect(error, lambda: checks.check_finite_bound(
                self.dfas[name], values, result.bound, result.cell))

        return check


IN_PROCESS = {"weight-sweep": WeightSweep, "group-arith": GroupArith}
WORKLOADS = ("cli-oneshot", *IN_PROCESS)


def probe():
    """One small call into every traced layer, on systems no workload uses.
    The traced run adds these spans to every workload, so each per-layer
    metric is measured on each workload; on a workload that does not use a
    layer, the metric is the probe's alone."""
    from weightcell import closedforms, cones, coxeter, weights

    i2_5 = coxeter.CoxeterSystem(("s", "t"), ((1, 5), (5, 1)))
    coxeter.language_automaton(i2_5, "lex")
    coxeter.lex_word(i2_5, coxeter.natural_map(i2_5, (0, 1, 0, 1, 0, 1)))
    coxeter.ball(i2_5, 3)
    closedforms.dihedral_bound(4, 1, -1)
    free = coxeter.language_automaton(coxeter.CoxeterSystem(("s", "t"), ((1, 0), (0, 1))), "reduced")
    normals = weights.boundedness_cone_vectors(free)
    cones.extreme_rays(cones.remove_redundant(cones.HRep(2, tuple(normals))))
    for values in ((1, -1), (-1, 1)):
        phi = weights.WeightVector(free.alphabet, values)
        weights.is_bounded(free, phi)
        weights.bound(free, phi)
        weights.cell_automaton(free, phi)
