"""Weight functions on regular languages: boundedness, bound, and cell.

A weight function assigns a rational to each letter and extends additively
to words.  On a trimmed DFA the relevant structure is finite: the letter
counts of the simple circuits cut out the cone of bounded weight functions,
and the cell (the words attaining the bound) is again regular, recognised
by the tight sub-automaton of maximal-weight runs.

One path-weight core serves `bound` and `cell_automaton`: Johnson's
circuit search decides boundedness, a forward and a backward path
relaxation give the bound and the tight sub-automaton, and the witnesses
are the circuit-free words of that sub-automaton.

All comparisons are exact; there are no tolerance parameters.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from math import lcm

from .automata import Automaton, Word, determinize, is_trim, minimize, trim
from .errors import InputError, Record, ResourceLimitError, UnboundedError
from .limits import Caps

__all__ = [
    "BoundednessReport",
    "CellResult",
    "SimpleCycle",
    "WeightVector",
    "bound",
    "cell_automaton",
    "circuit_free_words",
    "is_bounded",
    "parse_weights",
    "simple_circuit_words",
    "simple_cycles",
    "weight_of_word",
]


# ---------------------------------------------------------------------------
# Weight vectors
# ---------------------------------------------------------------------------


class WeightVector(Record):
    """Rational letter weights over an ordered alphabet."""

    alphabet: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __init__(self, alphabet, values):
        if len(alphabet) != len(values):
            raise InputError("weight vector must assign a value to every letter")
        self._init(alphabet=alphabet, values=tuple(Fraction(v) for v in values))

    @staticmethod
    def from_mapping(alphabet, mapping) -> "WeightVector":
        missing = [name for name in alphabet if name not in mapping]
        if missing:
            raise InputError(f"no value given for: {', '.join(missing)}")
        extra = [name for name in mapping if name not in alphabet]
        if extra:
            raise InputError(f"values given for unknown names: {', '.join(extra)}")
        return WeightVector(tuple(alphabet), tuple(Fraction(mapping[n]) for n in alphabet))

    def __getitem__(self, name: str) -> Fraction:
        try:
            return self.values[self.alphabet.index(name)]
        except ValueError:
            raise InputError(f"unknown letter {name!r}") from None

    @cached_property
    def _integral(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator): the values over their least common
        denominator."""
        denominator = lcm(*(v.denominator for v in self.values))
        scale = [denominator // v.denominator for v in self.values]
        return tuple(v.numerator * k for v, k in zip(self.values, scale)), denominator


def assignments(text: str):
    """The (name, value) pairs of "s=1,t=2,u=-5" in order (rational literals
    like "1/2" allowed)."""
    for item in filter(None, (part.strip() for part in text.split(","))):
        name, sep, raw = item.partition("=")
        if not sep:
            raise InputError(f"bad weight assignment {item!r} (expected name=value)")
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational literal {raw.strip()!r}") from None
        yield name.strip(), value


def parse_weights(text: str, alphabet) -> WeightVector:
    """Parse "s=1,t=2,u=-5"; each letter at most once."""
    mapping: dict[str, Fraction] = {}
    for name, value in assignments(text):
        if name in mapping:
            raise InputError(f"more than one value for {name!r}")
        mapping[name] = value
    return WeightVector.from_mapping(tuple(alphabet), mapping)


def weight_of_word(phi: WeightVector, w: Word) -> Fraction:
    """Letter counts times letter weights (additive over concatenation), as
    one integer dot product over the weights' common denominator."""
    numerators, denominator = phi._integral
    counts = _count_vector(w, len(numerators))
    return Fraction(sum(c * n for c, n in zip(counts, numerators)), denominator)


def _count_vector(w: Word, n_letters: int) -> tuple[int, ...]:
    counts = tuple(map(w.count, range(n_letters)))
    if sum(counts) != len(w):
        raise InputError("word letter outside the weight vector's alphabet")
    return counts


def distinct_count_vectors(cycles, n_letters: int) -> list[tuple[int, ...]]:
    """Letter-count vectors of `cycles`, duplicates dropped, first-occurrence
    order."""
    return list(dict.fromkeys(cycle.count_vector(n_letters) for cycle in cycles))


# ---------------------------------------------------------------------------
# Simple cycles (Johnson's elementary-circuit algorithm on the multigraph)
# ---------------------------------------------------------------------------


class SimpleCycle(Record):
    """An elementary circuit of the transition multigraph.

    arcs[i] = (state, letter) is the transition leaving `state`; the last arc
    returns to `base_state`.  States along the cycle are pairwise distinct.
    """

    base_state: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, base_state, arcs):
        self._init(base_state=base_state, arcs=arcs)

    def word(self) -> Word:
        return tuple(letter for _, letter in self.arcs)

    def states(self) -> tuple[int, ...]:
        return tuple(state for state, _ in self.arcs)

    def count_vector(self, n_letters: int) -> tuple[int, ...]:
        return _count_vector(self.word(), n_letters)

    def rotation(self, base: int) -> "SimpleCycle":
        states = self.states()
        if base not in states:
            raise InputError("rotation base must lie on the cycle")
        k = states.index(base)
        return SimpleCycle(base, self.arcs[k:] + self.arcs[:k])


def simple_cycles(a: Automaton, caps: Caps = Caps()) -> list[SimpleCycle]:
    """All elementary circuits, one canonical rotation each, deterministic order.

    The automaton must be trimmed (cycles through useless states would create
    spurious boundedness inequalities).  Parallel edges with distinct letters
    yield distinct circuits.  Each circuit is emitted based at its least
    state; rotations to other base states are available via `rotation`.
    """
    if not is_trim(a):
        raise InputError("simple_cycles requires a trimmed automaton")
    adjacency = a._out_edges
    predecessors: list[list[int]] = [[] for _ in range(a.n_states)]
    for src, _, dst in a.transitions:
        predecessors[dst].append(src)

    out: list[SimpleCycle] = []

    # Johnson's algorithm, restricted for each root to the states > root that
    # can reach root through such states, so every circuit is found exactly
    # once, based at its least state, and no dead end is walked.  The search
    # keeps its own stack of [state, edge iterator, found] frames (no
    # recursion), visiting edges in the same order as the recursive form.
    for root in range(a.n_states):
        live, todo = {root}, [root]
        while todo:
            for p in predecessors[todo.pop()]:
                if p > root and p not in live:
                    live.add(p)
                    todo.append(p)
        blocked: set[int] = {root}
        block_map: dict[int, set[int]] = {}
        path: list[tuple[int, int]] = []
        stack = [[root, iter(adjacency[root]), False]]
        while stack:
            frame = stack[-1]
            v = frame[0]
            for letter, dst in frame[1]:
                if dst == root:
                    out.append(SimpleCycle(root, tuple(path) + ((v, letter),)))
                    if len(out) > caps.cycles:
                        raise ResourceLimitError("simple cycles", caps.cycles)
                    frame[2] = True
                elif dst in live and dst not in blocked:
                    path.append((v, letter))
                    blocked.add(dst)
                    stack.append([dst, iter(adjacency[dst]), False])
                    break
            else:
                stack.pop()
                if frame[2]:
                    unblock = [v]
                    while unblock:
                        u = unblock.pop()
                        if u in blocked:
                            blocked.discard(u)
                            unblock.extend(block_map.pop(u, ()))
                else:
                    for _, dst in adjacency[v]:
                        if dst in live:
                            block_map.setdefault(dst, set()).add(v)
                if stack:
                    path.pop()
                    stack[-1][2] |= frame[2]
    return out


def simple_circuit_words(a: Automaton, caps: Caps = Caps()) -> list[Word]:
    """The full set of simple circuit subwords: every rotation of every
    elementary circuit (in a trimmed automaton each rotation occurs inside
    some accepted word), sorted shortlex, duplicates removed."""
    words = {
        cycle.rotation(state).word()
        for cycle in simple_cycles(a, caps)
        for state in cycle.states()
    }
    return sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Circuit-free words
# ---------------------------------------------------------------------------


def circuit_free_words(a: Automaton, caps: Caps = Caps()) -> list[Word]:
    """Accepted words whose path revisits no state at positions 1..n (the
    start state at position 0 is excluded from the distinctness
    comparison).  Output in shortlex order; more than `caps.words` words
    raise ResourceLimitError.
    """
    if not a.deterministic:
        raise InputError("circuit_free_words requires a deterministic automaton")
    if not is_trim(a):
        raise InputError("circuit_free_words requires a trimmed automaton")
    adjacency = a._out_edges
    words: list[Word] = [()] if a.start in a.accept else []
    visited: set[int] = set()
    word: list[int] = []
    stack = [(a.start, iter(adjacency[a.start]))]  # depth-first, no recursion
    while stack:
        state, edges = stack[-1]
        for letter, dst in edges:
            if dst not in visited:
                visited.add(dst)
                word.append(letter)
                if dst in a.accept:
                    words.append(tuple(word))
                    if len(words) > caps.words:
                        raise ResourceLimitError("circuit-free words", caps.words)
                stack.append((dst, iter(adjacency[dst])))
                break
        else:
            stack.pop()
            if stack:
                visited.discard(state)
                word.pop()
    return sorted(words, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# Boundedness, bound, cell
# ---------------------------------------------------------------------------


class BoundednessReport(Record):
    bounded: bool
    violating_cycle: SimpleCycle | None
    inequalities: tuple[tuple[int, ...], ...]  # letter-count vectors of cycles

    def __init__(self, bounded, violating_cycle, inequalities):
        self._init(bounded=bounded, violating_cycle=violating_cycle, inequalities=inequalities)


class CellResult(Record):
    """Exact bound, its circuit-free witnesses, and (when computed) the
    cell automata: `cell_nfa` is the raw tight sub-automaton straight out of
    the construction (a sub-automaton of a DFA, so deterministic, though
    possibly not trim), `cell_dfa` its trimmed, minimized form."""

    bound: Fraction
    witnesses: tuple[Word, ...]
    cell_nfa: Automaton | None
    cell_dfa: Automaton | None

    def __init__(self, bound, witnesses, cell_nfa=None, cell_dfa=None):
        self._init(bound=bound, witnesses=witnesses, cell_nfa=cell_nfa, cell_dfa=cell_dfa)


def prepared(a: Automaton, caps: Caps = Caps()) -> Automaton:
    """Deterministic trimmed form used by every weight-engine entry point."""
    if not a.deterministic:
        a = determinize(a, caps)
    return trim(a)


def _check_weights(a: Automaton, phi: WeightVector):
    if tuple(phi.alphabet) != a.alphabet:
        raise InputError("weight vector alphabet does not match the automaton")


def is_bounded(a: Automaton, phi: WeightVector, caps: Caps = Caps()) -> BoundednessReport:
    """Bounded iff every simple circuit has weight <= 0."""
    _check_weights(a, phi)
    cycles = simple_cycles(prepared(a, caps), caps)
    violating = next((c for c in cycles if weight_of_word(phi, c.word()) > 0), None)
    inequalities = tuple(distinct_count_vectors(cycles, len(a.alphabet)))
    return BoundednessReport(violating is None, violating, inequalities)


def _tight(a: Automaton, phi: WeightVector, caps: Caps = Caps()):
    """The path-weight core: (bound, tight sub-automaton, its trimmed form).

    Johnson's circuit search decides boundedness; then, with no positive
    circuit, an exact relaxation gives maxhead (the heaviest path from the
    start to each state) and maxtail (from each state to an accept state;
    the same relaxation on the reversed edges).  The bound b is the
    largest maxhead at an accept state.  The tight sub-automaton keeps the
    states q with maxhead(q) + maxtail(q) = b, the transitions preserving
    prefix maximality (maxhead(q) + weight(letter) = maxhead(q')), and
    accepts at the accept states with maxtail = 0.  It recognises exactly
    the words of weight b: along a run of weight b every prefix is as heavy
    as any path to its state and nothing is left to gain after it.
    """
    _check_weights(a, phi)
    d = prepared(a, caps)
    report = is_bounded(d, phi, caps)
    if not report.bounded:
        cyc = report.violating_cycle
        raise UnboundedError(
            "weight function is unbounded on the language",
            cycle=cyc,
            word=tuple(a.alphabet[i] for i in cyc.word()),
        )
    if not d.accept:
        raise InputError("the language is empty; no weight function has a bound")
    forward = [(src, phi.values[letter], dst) for src, letter, dst in d.transitions]
    maxhead = _relax(d.n_states, [d.start], forward)
    maxtail = _relax(d.n_states, d.accept, [(dst, w, src) for src, w, dst in forward])
    b = max(maxhead[q] for q in d.accept)
    # d is trimmed, so every state has a maxhead and a maxtail.
    tight = [q for q in range(d.n_states) if maxhead[q] + maxtail[q] == b]
    renum = {q: i for i, q in enumerate(tight)}
    transitions = tuple(
        (renum[src], letter, renum[dst])
        for src, letter, dst in d.transitions
        if src in renum and dst in renum and maxhead[src] + phi.values[letter] == maxhead[dst]
    )
    accept = frozenset(renum[q] for q in d.accept if q in renum and maxtail[q] == 0)
    raw = Automaton(a.alphabet, len(tight), renum[d.start], accept, transitions)
    return b, raw, trim(raw)


def _relax(n: int, sources, edges) -> list[Fraction | None]:
    """Exact maximum weight of a path from `sources` to each of the n states
    over `edges` (src, weight, dst); None if none.

    A FIFO worklist over out-adjacency lists: a state's out-edges are
    relaxed again only after its value rose.  Precondition: no circuit has
    positive weight (`_tight`, the only caller, runs Johnson's search
    first), so every value rises finitely often and the worklist empties.
    """
    out: list[list[tuple[Fraction, int]]] = [[] for _ in range(n)]
    for src, w, dst in edges:
        out[src].append((w, dst))
    best: list[Fraction | None] = [None] * n
    queued = [False] * n
    for q in sources:
        best[q] = Fraction(0)
        queued[q] = True
    queue = deque(q for q in range(n) if queued[q])
    while queue:
        src = queue.popleft()
        queued[src] = False
        for w, dst in out[src]:
            cand = best[src] + w
            if best[dst] is None or cand > best[dst]:
                best[dst] = cand
                if not queued[dst]:
                    queued[dst] = True
                    queue.append(dst)
    return best


def bound(a: Automaton, phi: WeightVector, caps: Caps = Caps()) -> CellResult:
    """Exact bound and its witnesses, the circuit-free words of the trimmed
    tight sub-automaton (cell automata left unset).  These are the accepted
    circuit-free words of maximal weight: the tight sub-automaton is a
    subgraph of the DFA and trimming keeps the order of its states, so both
    circuit-freeness and the shortlex order carry over."""
    b, _, cell = _tight(a, phi, caps)
    return CellResult(b, tuple(circuit_free_words(cell, caps=caps)))


def cell_automaton(a: Automaton, phi: WeightVector, caps: Caps = Caps()) -> CellResult:
    """The cell-recognising automaton: the tight sub-automaton of the DFA.

    The bound and the witnesses come from the same sub-automaton as in
    `bound`.  (A circuit-free prefix tree with zero-weight circuit copies
    appended recognises only the words whose zero circuits hang off a
    circuit-free backbone; circuits nesting inside other circuits defeat
    any bounded-depth attachment, so the tight sub-automaton construction
    is used instead.)

    Returns the raw sub-automaton together with its trimmed, minimized
    form; the sub-automaton of a DFA is deterministic, so no subset
    construction is needed.
    """
    b, raw, cell = _tight(a, phi, caps)
    witnesses = tuple(circuit_free_words(cell, caps=caps))
    return CellResult(b, witnesses, raw, minimize(cell))


def boundedness_cone_vectors(a: Automaton, caps: Caps = Caps()) -> list[tuple[int, ...]]:
    """Deduplicated letter-count vectors of the simple circuits (the raw
    inequality normals of the boundedness cone), first-occurrence order."""
    return distinct_count_vectors(simple_cycles(prepared(a, caps), caps), len(a.alphabet))
