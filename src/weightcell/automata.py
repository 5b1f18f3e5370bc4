"""Finite-state automata: the carrier of every language in this package.

An automaton is a labelled directed multigraph with a start state and a set
of accept states.  Non-deterministic automata share the type with DFAs (the
`deterministic` flag is computed from the transitions), because automaton
files may describe NFAs and `reverse` emits them.  An automaton computes
its determinism and its sorted out-edges once, on first use.

Determinize and minimize renumber states canonically (breadth-first
discovery order, letters ascending), so building the same automaton twice
yields bit-identical serializations.  `trim` preserves the relative order of
surviving states.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from functools import cached_property
from itertools import accumulate, groupby

from .errors import InputError, Record, ResourceLimitError
from .limits import Caps

Word = tuple[int, ...]

__all__ = [
    "Automaton",
    "Word",
    "accepts",
    "counterexample",
    "determinize",
    "enumerate_words",
    "equivalent",
    "from_json",
    "minimize",
    "reverse",
    "to_dot",
    "to_json",
    "trim",
]


class Automaton(Record):
    """Immutable automaton over an ordered alphabet of letter names.

    transitions are (source, letter_index, target) triples, kept sorted.
    """

    alphabet: tuple[str, ...]
    n_states: int
    start: int
    accept: frozenset[int]
    transitions: tuple[tuple[int, int, int], ...]

    def __init__(self, alphabet, n_states, start, accept, transitions):
        if len(set(alphabet)) != len(alphabet):
            raise InputError("alphabet letters must be distinct")
        if not (0 <= start < n_states):
            raise InputError("start state out of range")
        for q in accept:
            if not (0 <= q < n_states):
                raise InputError("accept state out of range")
        for src, letter, dst in transitions:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise InputError("transition endpoint out of range")
            if not (0 <= letter < len(alphabet)):
                raise InputError("transition letter out of range")
        accept, transitions = frozenset(accept), tuple(sorted(set(transitions)))
        self._init(alphabet=alphabet, n_states=n_states, start=start, accept=accept, transitions=transitions)

    @cached_property
    def deterministic(self) -> bool:
        seen = set()
        for src, letter, _ in self.transitions:
            if (src, letter) in seen:
                return False
            seen.add((src, letter))
        return True

    @cached_property
    def _out_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per state, the outgoing (letter, target) pairs sorted by letter then target."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n_states)]
        for src, letter, dst in self.transitions:
            out[src].append((letter, dst))
        return tuple(tuple(sorted(edges)) for edges in out)

    # -- word helpers -------------------------------------------------------

    def letter(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise InputError(f"unknown letter {name!r}") from None

    def word(self, text: str) -> Word:
        """Parse a word: contiguous single-char letters, or whitespace-separated."""
        if not text:
            return ()
        parts = text.split() if any(ch.isspace() for ch in text) else None
        if parts is None:
            if all(len(name) == 1 for name in self.alphabet):
                parts = list(text)
            else:
                parts = [text]
        return tuple(self.letter(p) for p in parts)

    def word_names(self, w: Word) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in w)

    def format_word(self, w: Word) -> str:
        names = self.word_names(w)
        if all(len(n) == 1 for n in self.alphabet):
            return "".join(names)
        return " ".join(names)


def empty_language_automaton(alphabet: tuple[str, ...]) -> Automaton:
    return Automaton(alphabet, 1, 0, frozenset(), ())


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def trim(a: Automaton) -> Automaton:
    """Restrict to states reachable from the start and co-reachable to accept.

    Preserves the language and the relative order of surviving states; when
    no accept state is reachable, returns the canonical empty-language
    automaton (a single non-accepting start state).
    """
    forward = {a.start}
    queue = deque([a.start])
    out = a._out_edges
    while queue:
        q = queue.popleft()
        for _, dst in out[q]:
            if dst not in forward:
                forward.add(dst)
                queue.append(dst)
    rev: list[list[int]] = [[] for _ in range(a.n_states)]
    for src, _, dst in a.transitions:
        rev[dst].append(src)
    backward = set(a.accept)
    queue = deque(a.accept)
    while queue:
        q = queue.popleft()
        for src in rev[q]:
            if src not in backward:
                backward.add(src)
                queue.append(src)
    useful = forward & backward
    if a.start not in useful:
        return empty_language_automaton(a.alphabet)
    if len(useful) == a.n_states:
        return a
    order = sorted(useful)
    renum = {old: new for new, old in enumerate(order)}
    return Automaton(
        a.alphabet,
        len(order),
        renum[a.start],
        frozenset(renum[q] for q in a.accept if q in useful),
        tuple(
            (renum[src], letter, renum[dst])
            for src, letter, dst in a.transitions
            if src in useful and dst in useful
        ),
    )


def is_trim(a: Automaton) -> bool:
    t = trim(a)
    return t.n_states == a.n_states and len(t.transitions) == len(a.transitions)


def explore(start, successors, stage: str, cap: int):
    """Breadth-first search from `start`, numbering each key in discovery order.

    `successors(key)` yields (letter, key) pairs in ascending letter order.
    Returns (order, columns): the keys in number order, and the transitions
    as three parallel lists (sources, letters, targets) in (source, letter)
    order, whose numbers are the dict's own int objects.  More than `cap`
    keys raise ResourceLimitError(stage, cap).  Every construction numbers
    its states through here, which makes its output canonical.

    `order` is a view of the key -> number dict.  `determinize` and
    `_minimal` keep it until they have built their automaton.
    `_subset_automaton` keeps only its length, so its dict is freed before
    Hopcroft runs: kept alive through Hopcroft, it raised the peak RSS of a
    cold `coxeter build` of the affine D5 shortlex DFA from 25.3 to 30.3 MB
    (CPython 3.11, glibc).
    """
    index = {start: 0}
    sources, letters, targets = [], [], []
    queue = deque([start])
    while queue:
        key = queue.popleft()
        src = index[key]
        for letter, nxt in successors(key):
            dst = index.get(nxt)
            if dst is None:
                if len(index) >= cap:
                    raise ResourceLimitError(stage, cap)
                dst = index[nxt] = len(index)
                queue.append(nxt)
            sources.append(src)
            letters.append(letter)
            targets.append(dst)
    return index.keys(), (sources, letters, targets)


def _automaton(alphabet, n: int, start: int, accept, columns) -> Automaton:
    """The automaton whose transitions are the (sources, letters, targets) columns."""
    return Automaton(alphabet, n, start, accept, tuple(zip(*columns)))


def determinize(a: Automaton, caps: Caps = Caps()) -> Automaton:
    """Subset construction; canonical numbering by BFS discovery, letters ascending."""
    out = a._out_edges

    def successors(subset):
        targets: dict[int, set[int]] = {}
        for q in subset:
            for letter, dst in out[q]:
                targets.setdefault(letter, set()).add(dst)
        for letter in sorted(targets):
            yield letter, frozenset(targets[letter])

    order, columns = explore(
        frozenset([a.start]), successors, "determinization states", caps.states
    )
    accept = frozenset(i for i, subset in enumerate(order) if subset & a.accept)
    return _automaton(a.alphabet, len(order), 0, accept, columns)


class _Partition:
    """Refinable partition of range(n) (Valmari-Lehtinen 2008): set b is the
    slice first[b]:past[b] of `elems`, and `refine` cuts every set it
    touches into its given and other elements, numbering the smaller part
    as a new set after all others.  Positions and elements are entries of
    `ids` (list(range(k)) for some k >= n), so no entry holds its own int."""

    def __init__(self, ids: list[int], n: int):
        self.ids, self.elems, self.loc, self.set_of = ids, ids[:n], ids[:n], [0] * n
        self.first, self.past, self.marked = ([0], [n], [0]) if n else ([], [], [])

    def members(self, b: int) -> list[int]:
        return self.elems[self.first[b] : self.past[b]]

    def refine(self, items) -> None:
        elems, loc, set_of, marked = self.elems, self.loc, self.set_of, self.marked
        ids, first, past, touched = self.ids, self.first, self.past, []
        for e in items:  # move e to the marked front of its set
            b, i = set_of[e], loc[e]
            j = first[b] + marked[b]
            if i < j:
                continue
            other = elems[j]
            elems[i], elems[j], loc[other], loc[e] = other, e, i, ids[j]
            if not marked[b]:
                touched.append(b)
            marked[b] += 1
        for b in touched:
            j = first[b] + marked[b]
            marked[b] = 0
            if j == past[b]:
                continue
            parts = [(first[b], j), (j, past[b])]  # marked, unmarked
            if j - first[b] > past[b] - j:
                parts.reverse()
            (lo, hi), (first[b], past[b]) = parts
            new = len(first)
            first.append(lo)
            past.append(hi)
            marked.append(0)
            for e in elems[lo:hi]:
                set_of[e] = new


def minimize(a: Automaton) -> Automaton:
    """Minimal DFA of the same language, canonically numbered.  Partial DFAs
    are supported (a missing transition is an implicit reject sink); rejects
    non-deterministic input."""
    if not a.deterministic:
        raise InputError("minimize requires a deterministic automaton")
    a = trim(a)
    if not a.accept:
        return empty_language_automaton(a.alphabet)
    columns = tuple(map(list, zip(*a.transitions))) or ([], [], [])
    return _minimal(a.alphabet, a.n_states, a.start, a.accept, columns)


def _minimal(alphabet, n: int, start: int, accept, columns) -> Automaton:
    """Minimal DFA of a trim DFA on range(n), its transitions given as the
    (sources, letters, targets) columns of `explore`, in (source, letter)
    order, canonically numbered over the blocks of `_stable_blocks`."""
    sources, letters, targets = columns
    block = _stable_blocks(n, accept, columns)
    # any state of a block represents it, and the out-edges of q are the
    # transitions with source q
    reps = {block[q]: q for q in range(n)}

    def successors(b):
        q = reps[b]
        for t in range(bisect_left(sources, q), bisect_left(sources, q + 1)):
            yield letters[t], block[targets[t]]

    order, edges = explore(block[start], successors, "minimized states", n)
    final = frozenset(i for i, b in enumerate(order) if reps[b] in accept)
    return _automaton(alphabet, len(order), 0, final, edges)


def _stable_blocks(n: int, accept, columns) -> list[int]:
    """The block of each state in the coarsest partition of a DFA that
    separates accept states and is stable under its transitions: Hopcroft
    (1971) in Valmari and Lehtinen's form for partial DFAs (2008),
    O(m log n) for m transitions; each new block splits those into it.
    Every structure here is freed before the caller builds its automaton."""
    sources, letters, targets = columns
    m = len(sources)
    ids = list(range(max(n, m) + 1))  # one int object per number, shared below
    # transitions into state q: into[offsets[q] : offsets[q + 1]]
    into = sorted(ids[:m], key=targets.__getitem__)
    counts = [0] * n
    for dst in targets:
        counts[dst] += 1
    offsets = list(map(ids.__getitem__, accumulate(counts, initial=0)))
    del counts

    def incoming(states):
        for q in states:
            yield from into[offsets[q] : offsets[q + 1]]

    blocks, cords = _Partition(ids, n), _Partition(ids, m)
    blocks.refine(accept)
    for _, group in groupby(sorted(ids[:m], key=letters.__getitem__), letters.__getitem__):
        cords.refine(group)
    b, c = 1, 0  # block 0 never splits the transitions: Hopcroft's "all but one"
    while c < len(cords.first):
        blocks.refine(map(sources.__getitem__, cords.members(c)))
        c += 1
        while b < len(blocks.first):
            cords.refine(incoming(blocks.members(b)))
            b += 1
    return blocks.set_of


def reverse(a: Automaton) -> Automaton:
    """NFA for the letter-reversals of the accepted words.

    The multiple initial states of the naive reversal (the old accept set)
    are simulated by a fresh start state that replicates their out-edges;
    the accept set becomes the old start state (plus the fresh start when
    the empty word is in the language).
    """
    rev_edges = [(dst, letter, src) for src, letter, dst in a.transitions]
    fresh = a.n_states
    extra = [
        (fresh, letter, dst)
        for src, letter, dst in rev_edges
        if src in a.accept
    ]
    accept = {a.start}
    if a.start in a.accept:
        accept.add(fresh)
    return Automaton(
        a.alphabet,
        a.n_states + 1,
        fresh,
        frozenset(accept),
        tuple(rev_edges + extra),
    )


def accepts(a: Automaton, w: Word) -> bool:
    """Path-existence membership test; works for NFAs."""
    out = a._out_edges
    current = {a.start}
    for letter in w:
        if not (0 <= letter < len(a.alphabet)):
            raise InputError("word letter out of alphabet range")
        current = {dst for q in current for x, dst in out[q] if x == letter}
        if not current:
            return False
    return bool(current & a.accept)


def enumerate_words(a: Automaton, maxlen: int, caps: Caps = Caps()) -> list[Word]:
    """All accepted words of length <= maxlen, in shortlex order."""
    if maxlen < 0:
        raise InputError("maxlen must be >= 0")
    d = a if a.deterministic else determinize(a, caps)
    out = d._out_edges
    words: list[Word] = []
    frontier: list[tuple[int, Word]] = [(d.start, ())]
    if d.start in d.accept:
        words.append(())
    for _ in range(maxlen):
        nxt: list[tuple[int, Word]] = []
        for state, word in frontier:
            for letter, t in out[state]:
                w2 = word + (letter,)
                nxt.append((t, w2))
                if t in d.accept:
                    words.append(w2)
                    if len(words) > caps.words:
                        raise ResourceLimitError("enumerated words", caps.words)
        if not nxt:
            break
        frontier = nxt
    return words


def _remap_to(a: Automaton, alphabet: tuple[str, ...]) -> Automaton:
    if a.alphabet == alphabet:
        return a
    if set(a.alphabet) != set(alphabet):
        raise InputError("alphabet mismatch (letter names differ)")
    mapping = {i: alphabet.index(name) for i, name in enumerate(a.alphabet)}
    return Automaton(
        alphabet,
        a.n_states,
        a.start,
        a.accept,
        tuple((src, mapping[letter], dst) for src, letter, dst in a.transitions),
    )


def counterexample(a: Automaton, b: Automaton, caps: Caps = Caps()) -> Word | None:
    """Shortest (then lexicographically least) word in the symmetric difference.

    Returns None when the languages agree.  Requires equal alphabets as sets
    of letter names; b is remapped to a's letter order.
    """
    b = _remap_to(b, a.alphabet)
    da, db = determinize(a, caps), determinize(b, caps)
    # per state, letter -> target; the sink after the last state has no edges
    ta = [dict(edges) for edges in da._out_edges] + [{}]
    tb = [dict(edges) for edges in db._out_edges] + [{}]
    sink_a, sink_b = da.n_states, db.n_states
    start = (da.start, db.start)
    seen = {start}
    queue = deque([(start, ())])
    n_letters = len(a.alphabet)
    while queue:
        (p, q), word = queue.popleft()
        if (p in da.accept) != (q in db.accept):
            return word
        for letter in range(n_letters):
            p2, q2 = ta[p].get(letter, sink_a), tb[q].get(letter, sink_b)
            if p2 == sink_a and q2 == sink_b:
                continue
            key = (p2, q2)
            if key not in seen:
                seen.add(key)
                queue.append((key, word + (letter,)))
    return None


def equivalent(a: Automaton, b: Automaton, caps: Caps = Caps()) -> bool:
    """True iff the two automata recognise the same language."""
    return counterexample(a, b, caps) is None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_json(a: Automaton) -> str:
    doc = {
        "alphabet": list(a.alphabet),
        "states": a.n_states,
        "start": a.start,
        "accept": sorted(a.accept),
        "transitions": [
            [src, a.alphabet[letter], dst] for src, letter, dst in a.transitions
        ],
        "deterministic": a.deterministic,
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_int(value) -> int:
    if type(value) is not int:  # neither a float nor a bool numbers a state
        raise InputError(f"state numbers must be integers, got {value!r}")
    return value


def from_json(text: str, caps: Caps = Caps()) -> Automaton:
    """Read an automaton document; more than `caps.states` states raise
    ResourceLimitError before anything is built per state."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid automaton JSON: {exc}") from None
    try:
        alphabet = tuple(doc["alphabet"])
        if not all(isinstance(name, str) for name in alphabet):
            raise InputError("alphabet letters must be strings")
        n_states = _json_int(doc["states"])
        if n_states > caps.states:
            raise ResourceLimitError("automaton file states", caps.states)
        start = _json_int(doc["start"])
        accept = frozenset(_json_int(q) for q in doc["accept"])
        transitions = []
        for src, letter, dst in doc["transitions"]:
            if letter not in alphabet:
                raise InputError(f"transition uses unknown letter {letter!r}")
            transitions.append((_json_int(src), alphabet.index(letter), _json_int(dst)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid automaton document: {exc}") from None
    a = Automaton(alphabet, n_states, start, accept, tuple(transitions))
    if doc.get("deterministic") is True and not a.deterministic:
        raise InputError("document claims deterministic but transitions are not")
    return a


_DOT_COLOURS = (
    "black",
    "blue",
    "red",
    "forestgreen",
    "darkorange",
    "purple",
    "brown",
    "teal",
)


def to_dot(a: Automaton, name: str = "automaton") -> str:
    """Graphviz DOT export: accept states double-circled, start marked,
    edges coloured per letter in declaration order."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(a.n_states):
        shape = "doublecircle" if q in a.accept else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  __start -> {a.start};")
    for src, letter, dst in a.transitions:
        colour = _DOT_COLOURS[letter % len(_DOT_COLOURS)]
        lines.append(
            f'  {src} -> {dst} [label="{a.alphabet[letter]}", color="{colour}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
