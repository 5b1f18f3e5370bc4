"""Weight-engine tests: circuits, circuit-free words, boundedness, bound, cell."""

import random
from fractions import Fraction

import pytest

from weightcell.automata import (
    Automaton,
    accepts,
    enumerate_words,
    equivalent,
    trim,
)
from weightcell.errors import InputError, PreconditionError, UnboundedError
from weightcell.weights import (
    CellResult,
    SimpleCycle,
    WeightVector,
    bound,
    cell_automaton,
    circuit_free_words,
    is_bounded,
    parse_weights,
    prepared,
    simple_circuit_words,
    simple_cycles,
    strictly_negative_cell,
    weight_of_word,
)

from conftest import random_automaton, single_cycle_automaton


def wv(a, text):
    return parse_weights(text, a.alphabet)


def words_of(a, texts):
    return {a.word(t) for t in texts}


# -- independent oracles ------------------------------------------------------


def path_states(a, w):
    """States at positions 1..n of the unique path reading w (DFA only)."""
    delta = {(src, letter): dst for src, letter, dst in a.transitions}
    q = a.start
    out = []
    for letter in w:
        q = delta[(q, letter)]
        out.append(q)
    return out


def is_circuit_free_ref(a, w):
    states = path_states(a, w)
    return len(states) == len(set(states))


def recursive_johnson(a):
    """Johnson's circuit search in its recursive form (the order reference)."""
    adjacency = [[] for _ in range(a.n_states)]
    for src, letter, dst in a.transitions:
        adjacency[src].append((dst, letter))
    for edges in adjacency:
        edges.sort(key=lambda e: (e[1], e[0]))
    out = []
    for root in range(a.n_states):
        blocked, block_map, path = set(), {}, []

        def unblock(v):
            if v in blocked:
                blocked.discard(v)
                for u in block_map.pop(v, ()):
                    unblock(u)

        def circuit(v):
            found = False
            blocked.add(v)
            for dst, letter in adjacency[v]:
                if dst < root:
                    continue
                if dst == root:
                    out.append(SimpleCycle(root, tuple(path) + ((v, letter),)))
                    found = True
                elif dst not in blocked:
                    path.append((v, letter))
                    found = circuit(dst) or found
                    path.pop()
            if found:
                unblock(v)
            else:
                for dst, _ in adjacency[v]:
                    if dst >= root:
                        block_map.setdefault(dst, set()).add(v)
            return found

        circuit(root)
    return out


def max_weight_by_enumeration(a, phi, maxlen):
    best = None
    argmax = []
    for w in enumerate_words(a, maxlen):
        value = weight_of_word(phi, w)
        if best is None or value > best:
            best, argmax = value, [w]
        elif value == best:
            argmax.append(w)
    return best, argmax


# -- weight vectors -----------------------------------------------------------


class TestWeightVector:
    def test_parse(self, fig_246):
        phi = wv(fig_246, "s=1,t=2,u=-5")
        assert phi.values == (1, 2, -5)
        assert phi["u"] == -5

    def test_parse_fractions(self, ex_dihedral):
        phi = wv(ex_dihedral, "s=1/2, t=-3/4")
        assert phi.values == (Fraction(1, 2), Fraction(-3, 4))

    def test_parse_errors(self, ex_dihedral):
        with pytest.raises(InputError):
            wv(ex_dihedral, "s=1")  # t missing
        with pytest.raises(InputError):
            wv(ex_dihedral, "s=1,t=2,x=3")
        with pytest.raises(InputError):
            wv(ex_dihedral, "s=1,t=zzz")
        with pytest.raises(InputError):
            wv(ex_dihedral, "s=1,s=2,t=0")

    def test_weight_of_word(self, fig_246):
        phi = wv(fig_246, "s=1,t=2,u=-5")
        assert weight_of_word(phi, fig_246.word("stst")) == 6
        assert weight_of_word(phi, ()) == 0

    def test_additive(self, ex_dihedral):
        phi = wv(ex_dihedral, "s=1,t=-1")
        assert weight_of_word(phi, ex_dihedral.word("sts")) == 1
        u, v = ex_dihedral.word("st"), ex_dihedral.word("tss")
        assert weight_of_word(phi, u + v) == weight_of_word(phi, u) + weight_of_word(phi, v)

    def test_matches_letter_by_letter_sum(self):
        rng = random.Random(11)
        for _ in range(200):
            values = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(3))
            phi = WeightVector(("s", "t", "u"), values)
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 12)))
            assert weight_of_word(phi, w) == sum((values[i] for i in w), Fraction(0))

    def test_letter_outside_alphabet(self, ex_dihedral):
        phi = wv(ex_dihedral, "s=1,t=-1")
        for w in ((2,), (0, -1)):
            with pytest.raises(InputError):
                weight_of_word(phi, w)


# -- simple cycles ------------------------------------------------------------


class TestSimpleCycles:
    def test_dihedral(self, ex_dihedral):
        words = simple_circuit_words(ex_dihedral)
        assert set(words) == words_of(ex_dihedral, ["st", "ts"])

    def test_triangle_333(self, fig_333):
        words = set(simple_circuit_words(fig_333))
        # three elementary circuits: two triangles of opposite letter
        # orientation and one 4-cycle; all rotations of each
        expected = words_of(
            fig_333,
            ["stu", "tus", "ust", "sut", "uts", "tsu", "stsu", "tsus", "sust", "usts"],
        )
        assert words == expected

    def test_self_loop(self):
        a = Automaton(("s",), 1, 0, frozenset({0}), ((0, 0, 0),))
        cycles = simple_cycles(a)
        assert [c.word() for c in cycles] == [(0,)]

    def test_246_has_five_circuits(self, fig_246):
        cycles = simple_cycles(fig_246)
        assert len(cycles) == 5
        counts = sorted(c.count_vector(3) for c in cycles)
        assert counts == [(1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3)]

    def test_rotation_weights_equal(self, fig_246):
        phi = wv(fig_246, "s=3,t=-2,u=7")
        for cycle in simple_cycles(fig_246):
            weights = {
                weight_of_word(phi, cycle.rotation(q).word()) for q in cycle.states()
            }
            assert len(weights) == 1

    def test_requires_trim(self):
        a = Automaton(("s",), 2, 0, frozenset({0}), ((0, 0, 0), (1, 0, 1)))
        with pytest.raises(InputError):
            simple_cycles(a)

    def test_multigraph_parallel_edges(self):
        # two parallel edges with different letters: two distinct 2-cycles
        a = Automaton(
            ("s", "t"), 2, 0, frozenset({0, 1}),
            ((0, 0, 1), (0, 1, 1), (1, 0, 0)),
        )
        words = {c.word() for c in simple_cycles(a)}
        assert words == {a.word("ss"), a.word("ts")}

    def test_cap(self, fig_246):
        from weightcell.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            simple_cycles(fig_246, max_cycles=2)

    def test_against_networkx_on_random_digraphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(99)
        checked = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            edges = {
                (src, dst)
                for src in range(n)
                for dst in range(n)
                if rng.random() < 0.35
            }
            if not edges:
                continue
            a = trim(
                Automaton(
                    ("x",), n, 0, frozenset(range(n)),
                    tuple((s, 0, d) for s, d in edges),
                )
            )
            ours = sorted(tuple(sorted(c.states())) for c in simple_cycles(a))
            g = nx.DiGraph()
            g.add_nodes_from(range(a.n_states))
            g.add_edges_from((s, d) for s, _, d in a.transitions)
            reference = sorted(tuple(sorted(c)) for c in nx.simple_cycles(g))
            assert ours == reference
            checked += 1
        assert checked > 100

    def test_order_matches_recursive_johnson(self):
        # the search runs on an explicit stack; its output, order included,
        # must be that of the recursive formulation kept here as reference
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            a = trim(random_automaton(rng, max_states=6, n_letters=2))
            if not a.accept:
                continue
            assert simple_cycles(a) == recursive_johnson(a)
            checked += 1
        assert checked > 100

    def test_long_cycle_needs_no_recursion(self):
        a = single_cycle_automaton(3000)
        (cycle,) = simple_cycles(a)
        assert cycle.count_vector(2) == (2999, 1)


# -- circuit-free words ---------------------------------------------------------


class TestCircuitFree:
    def test_dihedral(self, ex_dihedral):
        words = circuit_free_words(ex_dihedral)
        assert set(words) == words_of(ex_dihedral, ["", "s", "t", "st", "ts"])
        assert words == sorted(words, key=lambda w: (len(w), w))

    def test_triangle_counts(self, fig_333, fig_246):
        assert len(circuit_free_words(fig_333)) == 64
        assert len(circuit_free_words(fig_246)) == 92

    def test_against_definition(self, fig_333):
        by_enumeration = {
            w
            for w in enumerate_words(fig_333, fig_333.n_states)
            if is_circuit_free_ref(fig_333, w)
        }
        assert set(circuit_free_words(fig_333)) == by_enumeration

    def test_strict_convention_agrees_when_start_has_no_in_edges(self, fig_246):
        assert circuit_free_words(fig_246) == circuit_free_words(
            fig_246, strict_graph_sense=True
        )

    def test_strict_convention_differs_when_start_reenterable(self):
        # single state with a loop: the empty word and "s" are circuit free in
        # the positional sense; strict graph sense forbids re-entering start
        a = Automaton(("s",), 1, 0, frozenset({0}), ((0, 0, 0),))
        assert set(circuit_free_words(a)) == {(), (0,)}
        assert set(circuit_free_words(a, strict_graph_sense=True)) == {()}

    def test_requires_dfa(self, ex_cell_nfa):
        with pytest.raises(InputError):
            circuit_free_words(ex_cell_nfa)

    def test_long_path_needs_no_recursion(self):
        a = single_cycle_automaton(3000)
        assert circuit_free_words(a) == [(0,) * 2999]


# -- boundedness ----------------------------------------------------------------


class TestIsBounded:
    def test_246_intro_weight(self, fig_246):
        report = is_bounded(fig_246, wv(fig_246, "s=1,t=2,u=-5"))
        assert report.bounded
        assert report.violating_cycle is None

    def test_length_function_unbounded(self, fig_333):
        report = is_bounded(fig_333, wv(fig_333, "s=1,t=1,u=1"))
        assert not report.bounded
        cycle = report.violating_cycle
        assert cycle is not None
        assert weight_of_word(wv(fig_333, "s=1,t=1,u=1"), cycle.word()) > 0

    def test_dihedral_halfplane(self, ex_dihedral):
        rng = random.Random(5)
        for _ in range(50):
            a = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
            b = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
            phi = WeightVector(("s", "t"), (a, b))
            assert is_bounded(ex_dihedral, phi).bounded == (a + b <= 0)

    def test_inequalities_are_cycle_counts(self, fig_246):
        report = is_bounded(fig_246, wv(fig_246, "s=0,t=0,u=0"))
        assert set(report.inequalities) == {
            (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3)
        }

    def test_alphabet_mismatch(self, fig_246):
        with pytest.raises(InputError):
            is_bounded(fig_246, WeightVector(("x", "y"), (0, 0)))


# -- bound ------------------------------------------------------------------------


class TestBound:
    def test_246_intro(self, fig_246):
        result = bound(fig_246, wv(fig_246, "s=1,t=2,u=-5"))
        assert result.bound == 6

    def test_dihedral_formula(self, ex_dihedral):
        rng = random.Random(17)
        for _ in range(50):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            b = -a - Fraction(rng.randint(0, 8), rng.randint(1, 4))
            result = bound(ex_dihedral, WeightVector(("s", "t"), (a, b)))
            assert result.bound == max(0, a, b, a + b)

    def test_dihedral_at_1_minus_1(self, ex_dihedral):
        result = bound(ex_dihedral, wv(ex_dihedral, "s=1,t=-1"))
        assert result.bound == 1
        assert result.witnesses == (ex_dihedral.word("s"),)
        assert result.cell_nfa is None and result.cell_dfa is None

    def test_333_spec_point(self, fig_333):
        result = bound(fig_333, wv(fig_333, "s=1,t=-1,u=-1"))
        assert result.bound == 1

    def test_unbounded_rejected_with_cycle(self, fig_333):
        with pytest.raises(UnboundedError) as info:
            bound(fig_333, wv(fig_333, "s=1,t=1,u=1"))
        assert info.value.word is not None

    def test_empty_language(self):
        a = Automaton(("s",), 1, 0, frozenset(), ())
        with pytest.raises(InputError):
            bound(a, WeightVector(("s",), (Fraction(-1),)))


# -- cell ------------------------------------------------------------------------


class TestCell:
    def test_dihedral_cell(self, ex_dihedral, ex_cell_dfa):
        result = cell_automaton(ex_dihedral, wv(ex_dihedral, "s=1,t=-1"))
        assert result.bound == 1
        assert equivalent(result.cell_dfa, ex_cell_dfa)
        assert equivalent(result.cell_nfa, ex_cell_dfa)
        words = enumerate_words(result.cell_dfa, 5)
        assert words == [ex_dihedral.word(w) for w in ("s", "sts", "ststs")]
        # the tight sub-automaton here reproduces the 3-state reference DFA
        assert result.cell_nfa.n_states == 3
        assert equivalent(trim(result.cell_nfa), ex_cell_dfa)

    def test_nested_zero_circuits_are_recognised(self, fig_246):
        # with weight zero everywhere the cell is the whole language; the
        # witness word below has a zero circuit based strictly inside the
        # excursion of another zero circuit, which a circuit-free backbone
        # with depth-one circuit copies cannot accept
        phi = wv(fig_246, "s=0,t=0,u=0")
        result = cell_automaton(fig_246, phi)
        assert equivalent(result.cell_dfa, fig_246)
        nested = fig_246.word("tsututstuts")
        assert accepts(fig_246, nested)
        assert accepts(result.cell_dfa, nested)

    def test_246_intro_cell(self, fig_246):
        result = cell_automaton(fig_246, wv(fig_246, "s=1,t=2,u=-5"))
        s, t, u = 0, 1, 2
        # hand-coded DFA for s t s t (u t s t)*
        target = Automaton(
            ("s", "t", "u"), 8, 0, frozenset({4}),
            (
                (0, s, 1), (1, t, 2), (2, s, 3), (3, t, 4),
                (4, u, 5), (5, t, 6), (6, s, 7), (7, t, 4),
            ),
        )
        assert equivalent(result.cell_dfa, target)
        assert result.bound == 6
        assert result.witnesses == (fig_246.word("stst"),)

    def test_strictly_negative_weights_give_empty_word_cell(self, fig_333):
        result = cell_automaton(fig_333, wv(fig_333, "s=-1,t=-1,u=-1"))
        assert result.bound == 0
        assert result.witnesses == ((),)
        assert enumerate_words(result.cell_dfa, 8) == [()]

    def test_cell_nonempty_and_oracle(self, fig_333):
        phi = wv(fig_333, "s=0,t=1,u=-1")
        result = cell_automaton(fig_333, phi)
        assert result.bound == 1
        maxlen = 2 * prepared(fig_333).n_states
        best, argmax = max_weight_by_enumeration(fig_333, phi, maxlen)
        assert best == result.bound
        assert enumerate_words(result.cell_dfa, maxlen) == argmax
        assert enumerate_words(result.cell_dfa, maxlen)  # nonempty


class TestStrictlyNegativeCell:
    def test_dihedral_fast_path(self, ex_dihedral):
        cell = strictly_negative_cell(ex_dihedral, wv(ex_dihedral, "s=1,t=-2"))
        assert cell == (ex_dihedral.word("s"),)
        full = cell_automaton(ex_dihedral, wv(ex_dihedral, "s=1,t=-2"))
        assert set(enumerate_words(full.cell_dfa, 10)) == set(cell)

    def test_zero_circuit_rejected(self, ex_dihedral):
        with pytest.raises(PreconditionError):
            strictly_negative_cell(ex_dihedral, wv(ex_dihedral, "s=1,t=-1"))

    def test_positive_circuit_rejected(self, ex_dihedral):
        with pytest.raises(UnboundedError):
            strictly_negative_cell(ex_dihedral, wv(ex_dihedral, "s=2,t=-1"))

    def test_all_negative(self, fig_246):
        cell = strictly_negative_cell(fig_246, wv(fig_246, "s=-1,t=-1,u=-1"))
        assert cell == ((),)

    def test_unbounded_wins_over_an_earlier_zero_circuit(self):
        # Johnson finds the zero loop a at state 0 before the positive loop c
        a = Automaton(("a", "b", "c"), 2, 0, frozenset({1}), ((0, 0, 0), (0, 1, 1), (1, 2, 1)))
        phi = wv(a, "a=0,b=0,c=1")
        with pytest.raises(UnboundedError) as expected:
            bound(a, phi)
        with pytest.raises(UnboundedError) as info:
            strictly_negative_cell(a, phi)
        assert info.value.word == expected.value.word == ("c",)


# -- structural properties -----------------------------------------------------


def sample_bounded_weight(rng, a):
    """A random bounded weight vector: try a random one, fall back to its
    non-positive truncation (cycle counts are non-negative, so any
    non-positive vector is bounded)."""
    values = tuple(
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in a.alphabet
    )
    phi = WeightVector(a.alphabet, values)
    if is_bounded(a, phi).bounded:
        return phi
    return WeightVector(a.alphabet, tuple(-abs(v) for v in values))


class TestOracleProperties:
    def test_bound_and_cell_match_enumeration(self):
        rng = random.Random(41)
        checked = 0
        while checked < 25:
            a = trim(random_automaton(rng, max_states=4))
            if not a.accept or not a.deterministic:
                continue
            phi = sample_bounded_weight(rng, a)
            result = cell_automaton(a, phi)
            maxlen = 2 * prepared(a).n_states
            best, argmax = max_weight_by_enumeration(a, phi, maxlen)
            assert best == result.bound
            assert enumerate_words(result.cell_dfa, maxlen) == argmax
            assert argmax, "cell must be nonempty"
            circuit_free = [w for w in enumerate_words(a, maxlen) if is_circuit_free_ref(a, w)]
            top = max(weight_of_word(phi, w) for w in circuit_free)
            witnesses = tuple(w for w in circuit_free if weight_of_word(phi, w) == top)
            assert result.witnesses == witnesses
            assert bound(a, phi) == CellResult(best, witnesses)
            checked += 1

    def test_reduction_step_soundness(self, fig_246):
        """Excising the first simple circuit subword from an accepted
        non-circuit-free word yields an accepted word ending at the same state."""
        a = fig_246
        delta = {(src, letter): dst for src, letter, dst in a.transitions}
        rng = random.Random(9)
        candidates = [
            w for w in enumerate_words(a, 16) if not is_circuit_free_ref(a, w)
        ]
        for w in rng.sample(candidates, min(60, len(candidates))):
            states = path_states(a, w)
            seen = {}
            excised = None
            for j, q in enumerate(states):
                if q in seen:
                    i = seen[q]
                    excised = w[: i + 1] + w[j + 1 :]
                    break
                seen[q] = j
            assert excised is not None
            assert accepts(a, excised)
            assert path_states(a, excised)[-1] == states[-1]

    def test_cone_convexity_spot_check(self, fig_246):
        rng = random.Random(13)
        phi1 = wv(fig_246, "s=1,t=2,u=-5")
        phi2 = wv(fig_246, "s=-1,t=1,u=-1")
        for _ in range(20):
            lam1, lam2 = rng.randint(0, 5), rng.randint(0, 5)
            mix = WeightVector(
                fig_246.alphabet,
                tuple(lam1 * x + lam2 * y for x, y in zip(phi1.values, phi2.values)),
            )
            assert is_bounded(fig_246, mix).bounded

    def test_entry_points_normalize_input(self, ex_cell_nfa):
        # an NFA with useless states is determinized and trimmed internally
        phi = WeightVector(("s", "t"), (Fraction(-1), Fraction(-2)))
        result = bound(ex_cell_nfa, phi)
        assert result.bound == -1
        assert result.witnesses == ((0,),)
