"""Coxeter systems: exact group arithmetic, minimal roots, and the automata
for the reduced-word and shortlex languages.

Group elements are matrices of the geometric representation over the real
cyclotomic field Q(2cos(pi/M)), M the lcm of the finite bond labels, acting
on column vectors of simple-root coordinates.  Their entries lie in the ring
Z[2cos(pi/M)] and are stored as tuples of ints (see `cyclo`'s integer
kernel).  Equality is entry-wise exact, descent sets come from exact root
signs, and the shortlex normal form is the greedy strip of the least left
descent.

Both language automata read words forward over sets of minimal roots, one
int bitmask per state (Brink-Howlett 1993), fed straight to the Hopcroft core
of `automata`; a finite group's reduced-word automaton is already minimal.

What the group arithmetic reads of a system (the field modulus, the identity
matrix and the integer action of the generators) is built once per system
by `_kernel`, from the plain functions `field_modulus` and `bilinear_form`.
The other caches hold results: `minimal_roots`, `language_automaton`,
`is_positive_definite` and the balls of `_ball_entries`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .automata import Automaton, Word, _automaton, _minimal, explore
from .cyclo import CycloReal, embed_2cos, int_multiplier, int_mul_sub, int_sign
from .errors import InputError, Record, ResourceLimitError, UnboundedError
from .limits import Caps
from .weights import (
    WeightVector,
    cell_automaton,
    circuit_free_words,
    prepared,
    simple_circuit_words,
)

__all__ = [
    "CoxeterSystem",
    "GroupCellResult",
    "GroupElement",
    "HeckeOneDim",
    "MinimalRootTable",
    "ball",
    "group_cell",
    "hecke_onedim",
    "identity",
    "is_positive_definite",
    "length",
    "lex_word",
    "longest_element",
    "minimal_roots",
    "natural_map",
    "system_from_json",
    "validate_weight",
    "weight_classes",
]

INFINITE = 0  # JSON/bond encoding of an infinite label
# Systems held by each per-system cache: more than the 133 systems (one per
# generator order) that 24 rounds of perfbench's group-arith workload make.
_SYSTEMS_CACHED = 256


class CoxeterSystem(Record):
    """Generators plus the symmetric bond matrix (0 encodes infinity)."""

    generators: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, generators, matrix):
        n = len(generators)
        if len(set(generators)) != n or n == 0:
            raise InputError("generator names must be distinct and nonempty")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InputError("Coxeter matrix must be square of generator size")
        for i in range(n):
            if matrix[i][i] != 1:
                raise InputError("Coxeter matrix diagonal must be 1")
            for j in range(n):
                m = matrix[i][j]
                if m != matrix[j][i]:
                    raise InputError("Coxeter matrix must be symmetric")
                if i != j and m != INFINITE and m < 2:
                    raise InputError("off-diagonal bond labels must be >= 2 or 0 (infinity)")
        self._init(generators=tuple(generators), matrix=tuple(tuple(row) for row in matrix))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def bond(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    def reorder(self, order) -> "CoxeterSystem":
        """Same system with generators permuted (affects the shortlex order)."""
        names = tuple(order)
        if sorted(names) != sorted(self.generators):
            raise InputError("order must be a permutation of the generators")
        perm = [self.generators.index(n) for n in names]
        mat = tuple(tuple(self.matrix[i][j] for j in perm) for i in perm)
        return CoxeterSystem(names, mat)


def system_from_json(text: str) -> CoxeterSystem:
    try:
        doc = json.loads(text)
        generators = tuple(doc["generators"])
        matrix = tuple(tuple(row) for row in doc["matrix"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid Coxeter system document: {exc}") from None
    if not all(isinstance(name, str) for name in generators):
        raise InputError("generator names must be strings")
    if not all(type(m) is int for row in matrix for m in row):  # bool is not a label
        raise InputError("bond labels must be integers")
    return CoxeterSystem(generators, matrix)


# ---------------------------------------------------------------------------
# Field and bilinear form
# ---------------------------------------------------------------------------


def field_modulus(sys: CoxeterSystem) -> int:
    labels = [
        sys.matrix[i][j]
        for i in range(sys.rank)
        for j in range(i + 1, sys.rank)
        if sys.matrix[i][j] != INFINITE
    ]
    return lcm(*labels) if labels else 1


def bilinear_form(sys: CoxeterSystem):
    """B(alpha_i, alpha_j) = -cos(pi/m_ij), exactly -1 for infinite bonds."""
    M = field_modulus(sys)
    one = CycloReal.from_rational(M, 1)
    minus_one = CycloReal.from_rational(M, -1)
    half = Fraction(1, 2)

    def entry(i, j):
        if i == j:
            return one
        m = sys.matrix[i][j]
        if m == INFINITE:
            return minus_one
        return embed_2cos(m, M) * -half

    n = sys.rank
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


IntVec = tuple[int, ...]  # an element of Z[2cos(pi/M)], power-basis coefficients
IntMatrix = tuple[tuple[IntVec, ...], ...]  # rows of entries


@lru_cache(maxsize=_SYSTEMS_CACHED)
def _kernel(sys: CoxeterSystem) -> tuple[int, IntMatrix, tuple]:
    """Everything the group arithmetic reads of a system, built once: the
    field modulus M, the identity matrix, and for each generator s the
    pairs (k, multiplier of 2B(alpha_s, alpha_k)) over k != s with a nonzero
    entry.

    2B has entries 2, -2cos(pi/m) and -2, all in Z[2cos(pi/M)], so every
    group matrix and every root has integer coefficient vectors (`IntVec`).
    """
    M = field_modulus(sys)
    B = bilinear_form(sys)
    n = sys.rank
    multipliers: dict[IntVec, tuple] = {}  # one per distinct entry; B is symmetric
    plans = []
    for s in range(n):
        plan = []
        for k in range(n):
            entry = 2 * B[s][k]
            if k != s and not entry.is_zero():
                if any(c.denominator != 1 for c in entry.coeffs):
                    raise ArithmeticError("2B has a non-integral entry")
                coeffs = tuple(int(c) for c in entry.coeffs)
                if coeffs not in multipliers:
                    multipliers[coeffs] = int_multiplier(M, coeffs)
                plan.append((k, multipliers[coeffs]))
        plans.append(tuple(plan))
    deg = len(B[0][0].coeffs)
    one, zero = (1,) + (0,) * (deg - 1), (0,) * deg
    identity_mat = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return M, identity_mat, tuple(plans)


def _reflect(plan, s: int, vec) -> IntVec:
    """Coordinate s of sigma_s(vec) = vec - 2B(alpha_s, vec) alpha_s, that is
    -vec[s] - sum over k != s of 2B(alpha_s, alpha_k) vec[k]."""
    out = tuple([-v for v in vec[s]])
    for k, multiplier in plan:
        if any(vec[k]):
            out = int_mul_sub(out, multiplier, vec[k])
    return out


# ---------------------------------------------------------------------------
# Group elements
# ---------------------------------------------------------------------------

class GroupElement(Record):
    """Exact matrix of the geometric representation, with its inverse kept
    so descent tests on both sides stay cheap.  Entries are integer
    coefficient vectors over Z[2cos(pi/M)]; the hash is computed once."""

    system: CoxeterSystem
    mat: IntMatrix
    inv: IntMatrix

    def __init__(self, system, mat, inv):
        self._init(system=system, mat=mat, inv=inv, _hash=hash(mat))

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self._hash == other._hash
            and self.mat == other.mat
            and self.system == other.system
        )

    def __hash__(self):
        return self._hash

    def is_identity(self) -> bool:
        return self.mat == _kernel(self.system)[1]


def identity(sys: CoxeterSystem) -> GroupElement:
    e = _kernel(sys)[1]
    return GroupElement(sys, e, e)


def _left_mul_matrix(sys: CoxeterSystem, s: int, x: IntMatrix) -> IntMatrix:
    """Matrix of the generator s times x: sigma_s on every column, so only
    row s changes."""
    plan = _kernel(sys)[2][s]
    rows = list(x)
    rows[s] = tuple([_reflect(plan, s, col) for col in zip(*x)])
    return tuple(rows)


def _right_mul_matrix(sys: CoxeterSystem, x: IntMatrix, s: int) -> IntMatrix:
    """x times the matrix of the generator s: in each row, entry s is negated
    and entry k loses 2B(alpha_s, alpha_k) times the old entry s."""
    plan = _kernel(sys)[2][s]
    out = []
    for row in x:
        a = row[s]
        if not any(a):
            out.append(row)
            continue
        new = list(row)
        new[s] = tuple([-v for v in a])
        for k, multiplier in plan:
            new[k] = int_mul_sub(row[k], multiplier, a)
        out.append(tuple(new))
    return tuple(out)


def right_mul(g: GroupElement, s: int) -> GroupElement:
    sys = g.system
    return GroupElement(
        sys,
        _right_mul_matrix(sys, g.mat, s),
        _left_mul_matrix(sys, s, g.inv),
    )


def natural_map(sys: CoxeterSystem, w: Word) -> GroupElement:
    """The product of the generators of w, left to right."""
    mat = inv = _kernel(sys)[1]
    for s in w:
        mat = _right_mul_matrix(sys, mat, s)
        inv = _left_mul_matrix(sys, s, inv)
    return GroupElement(sys, mat, inv)


def _is_negative_column(M: int, x: IntMatrix, s: int) -> bool:
    """True iff column s of x, a root, is negative.  A root's coordinates
    never have opposite signs, so its first nonzero coordinate decides."""
    for row in x:
        if any(row[s]):
            return int_sign(M, row[s]) < 0
    raise InputError("the zero vector is not a root")


def right_descents(sys: CoxeterSystem, g: GroupElement) -> frozenset[int]:
    M = _kernel(sys)[0]
    return frozenset(s for s in range(sys.rank) if _is_negative_column(M, g.mat, s))


def lex_word(sys: CoxeterSystem, g: GroupElement) -> Word:
    """Shortlex normal form: repeatedly strip the least left descent.

    Only the inverse is tracked: the left descents of h are read off the
    columns of h^-1, and (t h)^-1 = h^-1 t.
    """
    M, identity_mat, _ = _kernel(sys)
    word = []
    inv = g.inv
    while inv != identity_mat:
        t = next((t for t in range(sys.rank) if _is_negative_column(M, inv, t)), None)
        if t is None:
            raise InputError("matrix is not a product of generator matrices")
        word.append(t)
        inv = _right_mul_matrix(sys, inv, t)
    return tuple(word)


def length(sys: CoxeterSystem, g: GroupElement) -> int:
    return len(lex_word(sys, g))


# ---------------------------------------------------------------------------
# Minimal roots
# ---------------------------------------------------------------------------

ACTION_DESCENT = -1
ACTION_NONMINIMAL = -3


class MinimalRootTable(Record):
    """Minimal roots (simple roots first), as integer coordinate vectors
    over Z[2cos(pi/M)], with the generator action.

    action[s][r] is the index of the image root (r itself when fixed),
    ACTION_DESCENT when the root is alpha_s, or ACTION_NONMINIMAL when the
    reflection leaves the minimal-root set.
    """

    roots: tuple[tuple[IntVec, ...], ...]
    action: tuple[tuple[int, ...], ...]

    def __init__(self, roots, action):
        self._init(roots=roots, action=action)

    @property
    def n_roots(self) -> int:
        return len(self.roots)


@lru_cache(maxsize=64)
def minimal_roots(sys: CoxeterSystem, caps: Caps = Caps()) -> MinimalRootTable:
    """Breadth-first closure from the simple roots.

    For a minimal root g and generator s with c = B(alpha_s, g): the root is
    its own descent when g = alpha_s; fixed when c = 0; reflected to the
    minimal root g - 2c*alpha_s when -1 < c < 1; and the image is non-minimal
    otherwise (|c| >= 1).  The search runs on integer vectors and compares
    2c with +-2.
    """
    M, identity_mat, plans = _kernel(sys)
    n = sys.rank
    roots: list[tuple[IntVec, ...]] = list(identity_mat)  # the simple roots
    index: dict[tuple[IntVec, ...], int] = {r: i for i, r in enumerate(roots)}

    action: dict[tuple[int, int], int] = {}
    frontier = list(range(n))
    while frontier:
        next_frontier = []
        for r in frontier:
            gamma = roots[r]
            for s in range(n):
                if r == s and r < n:
                    action[(s, r)] = ACTION_DESCENT
                    continue
                image_s = _reflect(plans[s], s, gamma)
                two_c = tuple([a - b for a, b in zip(gamma[s], image_s)])
                if int_sign(M, two_c) == 0:
                    action[(s, r)] = r
                    continue
                if (
                    int_sign(M, (two_c[0] - 2,) + two_c[1:]) >= 0
                    or int_sign(M, (two_c[0] + 2,) + two_c[1:]) <= 0
                ):
                    action[(s, r)] = ACTION_NONMINIMAL
                    continue
                key = gamma[:s] + (image_s,) + gamma[s + 1 :]
                if key not in index:
                    if len(roots) >= caps.roots:
                        raise ResourceLimitError("minimal roots", caps.roots)
                    index[key] = len(roots)
                    roots.append(key)
                    next_frontier.append(index[key])
                action[(s, r)] = index[key]
        frontier = next_frontier

    table = tuple(
        tuple(action[(s, r)] for r in range(len(roots))) for s in range(n)
    )
    return MinimalRootTable(tuple(roots), table)


# ---------------------------------------------------------------------------
# Automata for the reduced-word and shortlex languages
# ---------------------------------------------------------------------------


def _subset_automaton(sys: CoxeterSystem, shortlex: bool, caps: Caps = Caps()) -> tuple:
    """Forward BFS over sets D of minimal roots, each an int bitmask (bit r
    is root r of `minimal_roots`), returned as the state count and the
    transition columns of `explore`.  All states accept.

    Reading s needs alpha_s outside D (the word stays reduced) and leads to
    {alpha_s} | s(D) | extra_s, minimal roots only (Brink-Howlett 1993).
    extra_s is empty for reduced words; for shortlex it holds s(alpha_t) for
    every t < s, since a later letter with one of these roots could trade
    places with a t before the s (Casselman 1994).  s(D) is read from per-s
    tables that give, for each 8-bit chunk of D, the OR of its root images.
    """
    table = minimal_roots(sys, caps)
    steps = []
    for s, action in enumerate(table.action):
        images = [1 << r if r >= 0 else 0 for r in action]
        chunks = []
        for c in range(0, len(images), 8):
            chunk = [0]
            for image in images[c : c + 8]:
                chunk += [v | image for v in chunk]
            chunks.append(chunk)
        extra = sum(images[:s]) if shortlex else 0  # distinct roots: the sum is an OR
        steps.append((s, 1 << s, extra | 1 << s, chunks))

    def successors(mask):
        for s, bit, extra, chunks in steps:
            if mask & bit:
                continue
            image, rest = extra, mask
            for chunk in chunks:
                if not rest:
                    break
                image |= chunk[rest & 255]
                rest >>= 8
            yield s, image

    order, columns = explore(0, successors, "automaton states", caps.states)
    return len(order), columns


@lru_cache(maxsize=64)
def language_automaton(sys: CoxeterSystem, language: str, caps: Caps = Caps()) -> Automaton:
    """The minimal DFA of the shortlex ("lex") or reduced-word language: the
    subset automaton, a trim DFA, fed straight to the Hopcroft core.  A
    finite group's reduced-word automaton is returned as built: each state is
    one element, and distinct elements have distinct cone types."""
    if language not in ("lex", "reduced"):
        raise InputError(f"unknown language {language!r} (expected 'lex' or 'reduced')")
    n, columns = _subset_automaton(sys, language == "lex", caps)
    if language == "reduced" and is_positive_definite(sys, None, caps):
        return _automaton(sys.generators, n, 0, frozenset(range(n)), columns)
    return _minimal(sys.generators, n, 0, range(n), columns)


# ---------------------------------------------------------------------------
# Ball oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _ball_entries(
    sys: CoxeterSystem, radius: int, caps: Caps = Caps(), letters: tuple[int, ...] | None = None
) -> tuple[tuple[GroupElement, Word], ...]:
    """The ball of `ball`, over the ascending generator tuple `letters`
    (default: all of them)."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    letters = range(sys.rank) if letters is None else letters
    e = identity(sys)
    seen: dict[IntMatrix, tuple[GroupElement, Word]] = {e.mat: (e, ())}
    frontier = [(e, ())]
    for _ in range(radius):
        nxt = []
        for g, word in frontier:
            for s in letters:
                mat = _right_mul_matrix(sys, g.mat, s)
                if mat not in seen:
                    if len(seen) >= caps.elements:
                        raise ResourceLimitError("group elements", caps.elements)
                    h = GroupElement(sys, mat, _left_mul_matrix(sys, s, g.inv))
                    entry = (h, word + (s,))
                    seen[mat] = entry
                    nxt.append(entry)
        if not nxt:
            break
        frontier = nxt
    return tuple(seen.values())


def ball(sys: CoxeterSystem, radius: int, caps: Caps = Caps()) -> dict[GroupElement, Word]:
    """All elements of length <= radius with their shortlex normal forms.

    Breadth-first with exact matrix deduplication; expanding letters in
    ascending order means each element is first reached by its shortlex
    normal form (the shortlex language is prefix closed).
    """
    return dict(_ball_entries(sys, radius, caps))


# ---------------------------------------------------------------------------
# Weight functions on the group
# ---------------------------------------------------------------------------


def weight_classes(sys: CoxeterSystem) -> tuple[tuple[int, ...], ...]:
    """Connected components of the odd-bond graph: a group weight function is
    exactly an assignment constant on each class."""
    parent = list(range(sys.rank))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(sys.rank):
        for j in range(i + 1, sys.rank):
            m = sys.matrix[i][j]
            if m != INFINITE and m % 2 == 1:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(sys.rank):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def validate_weight(sys: CoxeterSystem, assignment) -> bool:
    """True iff the letter assignment extends to a weight function on the
    group: constant on every odd-bond class."""
    return _as_weight_vector(sys, assignment)[1]


def _as_weight_vector(sys: CoxeterSystem, assignment) -> tuple[WeightVector, bool]:
    """The assignment as a weight vector, and whether it is constant on
    every odd-bond class."""
    if isinstance(assignment, WeightVector):
        if tuple(assignment.alphabet) != sys.generators:
            raise InputError("weight vector alphabet does not match the generators")
        phi = assignment
    else:
        phi = WeightVector.from_mapping(sys.generators, assignment)
    return phi, all(len({phi.values[i] for i in group}) == 1 for group in weight_classes(sys))


def _group_weight(sys: CoxeterSystem, assignment) -> WeightVector:
    """The assignment as a weight vector; InputError unless it extends to a
    weight function on the group."""
    phi, extends = _as_weight_vector(sys, assignment)
    if not extends:
        raise InputError(
            "assignment does not extend to a weight function (odd-bond values differ)"
        )
    return phi


class GroupCellResult(Record):
    """Group-level cell data: the language DFA's simple circuit words and
    circuit-free words, the bound, the bound-attaining witness words, and the
    cell automaton.  X (circuit images, boundedness test) and Y (circuit-free
    images, bound carrier) are computed on first access."""

    system: CoxeterSystem
    language: str
    circuit_words: tuple[Word, ...]
    free_words: tuple[Word, ...]
    bound: Fraction
    witnesses: tuple[Word, ...]
    cell_nfa: Automaton
    cell_dfa: Automaton

    def __init__(self, system, language, circuit_words, free_words, bound, witnesses, cell_nfa, cell_dfa):
        self._init(
            system=system, language=language, circuit_words=circuit_words, free_words=free_words, bound=bound,
            witnesses=witnesses, cell_nfa=cell_nfa, cell_dfa=cell_dfa,
        )

    @cached_property
    def X(self) -> frozenset[GroupElement]:
        return frozenset(natural_map(self.system, w) for w in self.circuit_words)

    @cached_property
    def Y(self) -> frozenset[GroupElement]:
        return frozenset(natural_map(self.system, w) for w in self.free_words)


def group_cell(
    sys: CoxeterSystem,
    assignment,
    language: str = "lex",
    caps: Caps = Caps(),
) -> GroupCellResult:
    """Boundedness, bound, and cell of a group weight function, through the
    chosen geodesic language (shortlex is exact, so its cell automaton
    recognises one word per cell element)."""
    d, cell = _group_cell_automaton(sys, assignment, language, caps)
    circuits, free = tuple(simple_circuit_words(d, caps)), tuple(circuit_free_words(d, caps))
    return GroupCellResult(
        sys, language, circuits, free, cell.bound, cell.witnesses, cell.cell_nfa, cell.cell_dfa
    )


def _group_cell_automaton(sys: CoxeterSystem, assignment, language: str, caps: Caps = Caps()):
    """The prepared language DFA and the group weight function's cell on it."""
    phi = _group_weight(sys, assignment)
    d = prepared(language_automaton(sys, language, caps), caps)
    try:
        return d, cell_automaton(d, phi, caps)
    except UnboundedError as exc:
        raise UnboundedError(
            "weight function is unbounded on the group", cycle=exc.cycle, word=exc.word
        ) from None


class HeckeOneDim(Record):
    phi: WeightVector
    bound: Fraction
    cell_dfa: Automaton

    def __init__(self, phi, bound, cell_dfa):
        self._init(phi=phi, bound=bound, cell_dfa=cell_dfa)


def hecke_onedim(sys: CoxeterSystem, psi, signs, caps: Caps = Caps()) -> HeckeOneDim:
    """One-dimensional representations of the weighted Hecke algebra send
    each generator to +q^psi(s) or -q^-psi(s); the degree map is then the
    weight function phi(s) = sign(s)*psi(s).  Signs must be constant on
    odd-bond classes, else no such representation exists."""
    psi_map = dict(psi)
    sign_map = {}
    for name, raw in dict(signs).items():
        if raw in ("+", 1):
            sign_map[name] = 1
        elif raw in ("-", -1):
            sign_map[name] = -1
        else:
            raise InputError(f"sign for {name!r} must be '+' or '-'")
    for name in sys.generators:
        if name not in psi_map:
            raise InputError(f"missing Hecke parameter for generator {name!r}")
        if name not in sign_map:
            raise InputError(f"missing sign for generator {name!r}")
        value = psi_map[name]
        if int(value) != value or value <= 0:
            raise InputError("Hecke parameters must be positive integers")
    for group in weight_classes(sys):
        signs_here = {sign_map[sys.generators[i]] for i in group}
        if len(signs_here) > 1:
            raise InputError(
                "signs differ across an odd bond; no 1-dimensional representation exists"
            )
    phi = WeightVector(
        sys.generators,
        tuple(
            Fraction(int(psi_map[name]) * sign_map[name]) for name in sys.generators
        ),
    )
    _, cell = _group_cell_automaton(sys, phi, "lex", caps)
    return HeckeOneDim(phi, cell.bound, cell.cell_dfa)


# ---------------------------------------------------------------------------
# Finiteness, longest elements, parabolic subgroups
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_SYSTEMS_CACHED)
def is_positive_definite(
    sys: CoxeterSystem, subset: tuple[int, ...] | None = None, caps: Caps = Caps()
) -> bool:
    """Whether W, or the standard parabolic W_J on the generator indices
    `subset`, is finite (its bilinear form is then positive definite).

    Read off the minimal roots (Brink-Howlett 1993): W is finite iff no
    generator sends a minimal root to a non-minimal one.  In a finite group
    |B(alpha_s, g)| < 1 for every positive root g != alpha_s, so that never
    happens.  In an infinite group there are finitely many minimal roots but
    infinitely many roots; if no image left them, the minimal roots and
    their negatives would be closed under W and hold every root.  The empty
    subset gives the trivial group.
    """
    if subset is not None:
        indices = tuple(subset)
        if len(set(indices)) != len(indices) or not all(
            isinstance(i, int) and 0 <= i < sys.rank for i in indices
        ):
            raise InputError(f"bad parabolic subset {indices!r}")
        if not indices:
            return True
        sys = CoxeterSystem(
            tuple(sys.generators[i] for i in indices),
            tuple(tuple(sys.matrix[i][j] for j in indices) for i in indices),
        )
    return not any(ACTION_NONMINIMAL in row for row in minimal_roots(sys, caps).action)


def longest_element(sys: CoxeterSystem, caps: Caps = Caps()) -> GroupElement:
    """The unique maximal-length element of a finite system, by greedy ascent."""
    if not is_positive_definite(sys, None, caps):
        raise InputError("the system is infinite; no longest element exists")
    g = identity(sys)
    while True:
        ascent = next(
            (s for s in range(sys.rank) if s not in right_descents(sys, g)), None
        )
        if ascent is None:
            return g
        g = right_mul(g, ascent)


def parabolic_elements(
    sys: CoxeterSystem, subset, caps: Caps = Caps()
) -> dict[GroupElement, Word]:
    """All elements of the standard parabolic subgroup on `subset` (which
    must generate a finite subgroup) with their shortlex normal forms, in
    breadth-first order.  Every reduced word of an element of W_J uses only
    letters of J, so the ball over J reaches each element first by its
    normal form."""
    indices = tuple(sorted(subset))
    if not is_positive_definite(sys, indices, caps):
        raise InputError("the parabolic subgroup is infinite")
    return dict(_ball_entries(sys, caps.elements, caps, indices))
