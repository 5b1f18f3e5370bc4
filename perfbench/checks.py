"""Output checks.  Each check returns None when the output is right and a
one-line reason when it is wrong.

The checks use only an automaton's public fields (`start`, `accept`,
`transitions`) and exact rationals, and run outside the timed region.
Words are tuples of letter indices; `values` holds one weight per letter.
"""

from __future__ import annotations

from fractions import Fraction

# Words up to this length are searched by the "no word exceeds the bound"
# and "every cell word weighs the bound" checks.
DEPTH = 14


def weight(values, word) -> Fraction:
    return sum((Fraction(values[letter]) for letter in word), Fraction(0))


def _delta(a) -> dict:
    return {(src, letter): dst for src, letter, dst in a.transitions}


def _out_edges(a) -> dict:
    edges: dict[int, list] = {}
    for src, letter, dst in a.transitions:
        edges.setdefault(src, []).append((letter, dst))
    return edges


def _run(delta, state, word):
    for letter in word:
        state = delta.get((state, letter))
        if state is None:
            return None
    return state


def accepts(a, word) -> bool:
    return _run(_delta(a), a.start, word) in a.accept


def _useful_states(a) -> set[int]:
    forward, backward = {}, {}
    for src, _, dst in a.transitions:
        forward.setdefault(src, []).append(dst)
        backward.setdefault(dst, []).append(src)

    def closure(seeds, edges):
        seen, stack = set(seeds), list(seeds)
        while stack:
            for nxt in edges.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    return closure([a.start], forward) & closure(a.accept, backward)


def _weights_by_length(a, values, depth):
    """For each length 0..depth, the (min, max) weight of accepted words of
    that length, or None when there is none."""
    frontier = {a.start: (Fraction(0), Fraction(0))}
    out = []
    for length in range(depth + 1):
        ends = [span for q, span in frontier.items() if q in a.accept]
        out.append(
            (min(lo for lo, _ in ends), max(hi for _, hi in ends)) if ends else None
        )
        if length == depth:
            break
        nxt: dict[int, tuple[Fraction, Fraction]] = {}
        for src, letter, dst in a.transitions:
            if src in frontier:
                lo, hi = frontier[src]
                v = Fraction(values[letter])
                if dst in nxt:
                    old_lo, old_hi = nxt[dst]
                    nxt[dst] = (min(old_lo, lo + v), max(old_hi, hi + v))
                else:
                    nxt[dst] = (lo + v, hi + v)
        frontier = nxt
    return out


def check_bound(a, values, bound, witnesses, depth=DEPTH):
    """Every witness is accepted with weight equal to the bound, and no
    accepted word up to `depth` letters weighs more."""
    if not witnesses:
        return "no witness"
    delta = _delta(a)
    for w in witnesses:
        if _run(delta, a.start, w) not in a.accept:
            return f"witness {w} is not accepted"
        if weight(values, w) != bound:
            return f"witness {w} weighs {weight(values, w)}, not the bound {bound}"
    for length, span in enumerate(_weights_by_length(a, values, depth)):
        if span is not None and span[1] > bound:
            return f"an accepted word of length {length} weighs {span[1]} > bound {bound}"
    return None


def check_cell(a, cell, values, bound, witnesses, depth=DEPTH):
    """The bound check, plus: the witnesses are accepted by the cell DFA, and
    every cell word up to `depth` letters is in the language and weighs
    exactly the bound."""
    reason = check_bound(a, values, bound, witnesses, depth)
    if reason:
        return reason
    cell_delta = _delta(cell)
    for w in witnesses:
        if _run(cell_delta, cell.start, w) not in cell.accept:
            return f"witness {w} is not in the cell"
    for length, span in enumerate(_weights_by_length(cell, values, depth)):
        if span is not None and span != (bound, bound):
            return f"cell words of length {length} weigh {span[0]}..{span[1]}, not {bound}"
    # Product walk: a cell word must be a word of the language.
    delta, cell_edges = _delta(a), _out_edges(cell)
    frontier = {(cell.start, a.start)}
    for length in range(depth + 1):
        for p, q in frontier:
            if p in cell.accept and q not in a.accept:
                return f"a cell word of length {length} is not in the language"
        frontier = {
            (dst, delta.get((q, letter))) for p, q in frontier for letter, dst in cell_edges.get(p, ())
        }
    return None


def check_unbounded(a, values, word):
    """`word` is a circuit of the trimmed DFA and has positive weight."""
    if not word:
        return "empty violating circuit"
    if weight(values, word) <= 0:
        return f"violating circuit {word} weighs {weight(values, word)} <= 0"
    delta = _delta(a)
    if not any(_run(delta, q, word) == q for q in _useful_states(a)):
        return f"{word} is not a circuit of the automaton"
    return None


def _max_paths(a, values):
    """(best weight, number of accepted words attaining it) on an acyclic DFA."""
    out_edges = _out_edges(a)
    indegree = [0] * a.n_states
    for _, _, dst in a.transitions:
        indegree[dst] += 1
    order = [q for q in range(a.n_states) if indegree[q] == 0]
    for q in order:
        for _, dst in out_edges.get(q, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                order.append(dst)
    if len(order) != a.n_states:
        return None
    best: dict[int, tuple[Fraction, int]] = {a.start: (Fraction(0), 1)}
    for q in order:
        if q not in best:
            continue
        value, count = best[q]
        for letter, dst in out_edges.get(q, ()):
            cand = value + Fraction(values[letter])
            old = best.get(dst)
            if old is None or cand > old[0]:
                best[dst] = (cand, count)
            elif cand == old[0]:
                best[dst] = (cand, old[1] + count)
    ends = [best[q] for q in a.accept if q in best]
    top = max(v for v, _ in ends)
    return top, sum(c for v, c in ends if v == top)


def check_finite_bound(a, values, bound, cell):
    """For a finite group's (acyclic) shortlex DFA: the bound is the maximum
    path weight and, when given, the cell is exactly the set of accepted
    words attaining it."""
    found = _max_paths(a, values)
    if found is None:
        return "the automaton is not acyclic"
    top, count = found
    if bound != top:
        return f"bound {bound}, but the maximum weight is {top}"
    if cell is None:
        return None
    delta = _delta(a)
    for w in cell:
        if _run(delta, a.start, w) not in a.accept or weight(values, w) != top:
            return f"cell word {w} is not an accepted word of maximum weight"
    if len(set(cell)) != count:
        return f"cell has {len(set(cell))} words, but {count} words attain the bound"
    return None


def _rank(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_cone(doc):
    """A cone document {raw_normals, normals, lineality, rays}, meaning
    <n, x> <= 0: the irredundant normals are raw normals, the lineality lies
    on every hyperplane, and each ray satisfies every inequality and is
    extreme (its tight normals have rank dim - lineality - 1)."""
    raw = [tuple(n) for n in doc["raw_normals"]]
    if not set(map(tuple, doc["normals"])) <= set(raw):
        return "an irredundant normal is not a raw normal"
    dim = len((raw + doc["lineality"] + doc["rays"])[0])

    def dot(n, x):
        return sum(a * b for a, b in zip(n, x))

    for line in doc["lineality"]:
        if any(dot(n, line) != 0 for n in raw):
            return f"lineality vector {line} leaves a hyperplane"
    for ray in doc["rays"]:
        if not any(ray) or any(dot(n, ray) > 0 for n in raw):
            return f"ray {ray} violates an inequality"
        tight = [n for n in raw if dot(n, ray) == 0]
        if raw and _rank(tight) != dim - len(doc["lineality"]) - 1:
            return f"ray {ray} is not extreme"
    return None


def count_words_upto(a, depth) -> int:
    """Number of accepted words of length <= depth of a DFA."""
    frontier = {a.start: 1}
    total = 0
    for length in range(depth + 1):
        total += sum(c for q, c in frontier.items() if q in a.accept)
        if length == depth:
            break
        nxt: dict[int, int] = {}
        for src, _, dst in a.transitions:
            if src in frontier:
                nxt[dst] = nxt.get(dst, 0) + frontier[src]
        frontier = nxt
    return total


def words_upto(a, depth) -> set:
    """All accepted words of length <= depth of a DFA."""
    edges = _out_edges(a)
    out = set()
    frontier = [(a.start, ())]
    for length in range(depth + 1):
        out.update(w for q, w in frontier if q in a.accept)
        if length == depth:
            break
        frontier = [(dst, w + (letter,)) for q, w in frontier for letter, dst in edges.get(q, ())]
    return out
