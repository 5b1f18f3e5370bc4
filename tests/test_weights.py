"""Weight-engine tests: circuits, circuit-free words, boundedness, bound, cell."""

import random
from collections import deque
from fractions import Fraction
from math import gcd

import pytest

from weightcell.automata import (
    Automaton,
    accepts,
    determinize,
    enumerate_words,
    equivalent,
    minimize,
    to_json,
    trim,
)
from weightcell.cones import HRep, extreme_rays
from weightcell.coxeter import CoxeterSystem, language_automaton
from weightcell.errors import InputError, ResourceLimitError, UnboundedError
from weightcell.limits import Caps
from weightcell.weights import (
    CellResult,
    SimpleCycle,
    WeightVector,
    _relax,
    bound,
    boundedness_cone_vectors,
    cell_automaton,
    circuit_free_words,
    is_bounded,
    parse_weights,
    prepared,
    simple_circuit_words,
    simple_cycles,
    weight_of_word,
)

from conftest import (
    affine_b_system,
    affine_c_system,
    random_automaton,
    single_cycle_automaton,
    triangle_system,
)


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
        with pytest.raises(ResourceLimitError):
            simple_cycles(fig_246, caps=Caps(cycles=2))

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

    def test_path_may_reenter_the_start_once(self):
        # single state with a loop: the start at position 0 is left out of
        # the distinctness comparison, so "s" is circuit free and "ss" is not
        a = Automaton(("s",), 1, 0, frozenset({0}), ((0, 0, 0),))
        assert circuit_free_words(a) == [(), (0,)]

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

    @pytest.mark.parametrize(
        "fixture,text",
        [
            ("ex_dihedral", "s=1,t=-1"),
            ("ex_dihedral", "s=1,t=-2"),
            ("ex_cell_nfa", "s=-1,t=-2"),
            ("fig_246", "s=1,t=2,u=-5"),
            ("fig_246", "s=-1,t=1,u=-1"),
            ("fig_246", "s=0,t=0,u=0"),
            ("fig_333", "s=0,t=1,u=-1"),
            ("fig_333", "s=1,t=-1,u=-1"),
            ("fig_333", "s=-1,t=-1,u=-1"),
        ],
    )
    def test_tight_sub_automaton_is_deterministic(self, request, fixture, text):
        # cut out of the prepared DFA, so minimize needs no subset construction
        a = request.getfixturevalue(fixture)
        result = cell_automaton(a, wv(a, text))
        assert result.cell_nfa.deterministic
        cell = trim(result.cell_nfa)
        assert to_json(result.cell_dfa) == to_json(minimize(cell))
        assert to_json(minimize(cell)) == to_json(minimize(determinize(cell)))


def finite_cell(a, phi):
    """The cell of phi on a, checked to be finite and to be exactly `bound`'s
    witnesses: a cell DFA with an infinite language accepts a word of length
    at least its state count and below twice that count."""
    result = cell_automaton(a, phi)
    words = enumerate_words(result.cell_dfa, 2 * prepared(a).n_states)
    assert sorted(words) == sorted(result.witnesses)
    assert bound(a, phi).witnesses == result.witnesses
    return result.witnesses


class TestStrictlyNegativeCell:
    """With every circuit of negative weight the cell is finite: the cell
    DFA's words are exactly `bound`'s witnesses."""

    def test_dihedral_cell_is_the_witnesses(self, ex_dihedral):
        assert finite_cell(ex_dihedral, wv(ex_dihedral, "s=1,t=-2")) == (ex_dihedral.word("s"),)

    def test_positive_circuit_rejected(self, ex_dihedral):
        for entry in (bound, cell_automaton):
            with pytest.raises(UnboundedError):
                entry(ex_dihedral, wv(ex_dihedral, "s=2,t=-1"))

    def test_all_negative(self, fig_246, fig_333):
        assert finite_cell(fig_246, wv(fig_246, "s=-1,t=-1,u=-1")) == ((),)
        assert finite_cell(fig_333, wv(fig_333, "s=1,t=-2,u=-2")) == ((0,),)

    def test_random_negative_letters(self):
        # every letter negative makes every circuit negative
        rng = random.Random(5)
        checked = 0
        while checked < 25:
            a = trim(random_automaton(rng, max_states=5))
            if not a.accept:
                continue
            values = (Fraction(-rng.randint(1, 6), rng.randint(1, 3)) for _ in a.alphabet)
            phi = WeightVector(a.alphabet, tuple(values))
            assert finite_cell(a, phi)
            checked += 1

    def test_unbounded_wins_over_an_earlier_zero_circuit(self):
        # Johnson finds the zero loop a at state 0 before the positive loop c
        a = Automaton(("a", "b", "c"), 2, 0, frozenset({1}), ((0, 0, 0), (0, 1, 1), (1, 2, 1)))
        phi = wv(a, "a=0,b=0,c=1")
        with pytest.raises(UnboundedError) as expected:
            bound(a, phi)
        with pytest.raises(UnboundedError) as info:
            cell_automaton(a, phi)
        assert info.value.word == expected.value.word == ("c",)


class TestWordsCap:
    # With the zero weight the tight sub-automaton of fig 3.3.3 is the whole
    # DFA, so all 64 of its circuit-free words are witnesses.

    def test_default_caps(self, fig_333):
        phi = wv(fig_333, "s=0,t=0,u=0")
        words = circuit_free_words(fig_333)
        assert len(words) == 64
        assert bound(fig_333, phi) == CellResult(Fraction(0), tuple(words))
        result = cell_automaton(fig_333, phi)
        assert result.cell_nfa == fig_333 and result.witnesses == tuple(words)

    def test_cap_is_exceeded_only_past_its_value(self, fig_333):
        assert len(circuit_free_words(fig_333, caps=Caps(words=64))) == 64
        with pytest.raises(ResourceLimitError, match="circuit-free words"):
            circuit_free_words(fig_333, caps=Caps(words=63))

    def test_witness_enumerations_obey_the_cap(self, fig_333):
        phi = wv(fig_333, "s=0,t=0,u=0")
        for engine in (bound, cell_automaton):
            with pytest.raises(ResourceLimitError) as info:
                engine(fig_333, phi, Caps(words=10))
            assert (info.value.what, info.value.cap) == ("circuit-free words", 10)


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


# -- the Fraction relaxation, kept as the reference --------------------------


def fraction_relax(n, sources, edges):
    """The path relaxation over `Fraction` weights, as the weight engine ran
    it before it moved to the weights' integer numerators."""
    out = [[] for _ in range(n)]
    for src, w, dst in edges:
        out[src].append((w, dst))
    best = [None] * n
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


def fraction_tight(a, phi):
    """(bound, tight sub-automaton) by the `Fraction` relaxation, with the
    tight-state, tight-edge and accept tests over the rational weights."""
    d = prepared(a)
    forward = [(src, phi.values[letter], dst) for src, letter, dst in d.transitions]
    maxhead = fraction_relax(d.n_states, [d.start], forward)
    maxtail = fraction_relax(d.n_states, d.accept, [(dst, w, src) for src, w, dst in forward])
    b = max(maxhead[q] for q in d.accept)
    tight = [q for q in range(d.n_states) if maxhead[q] + maxtail[q] == b]
    renum = {q: i for i, q in enumerate(tight)}
    transitions = tuple(
        (renum[src], letter, renum[dst])
        for src, letter, dst in d.transitions
        if src in renum and dst in renum and maxhead[src] + phi.values[letter] == maxhead[dst]
    )
    accept = frozenset(renum[q] for q in d.accept if q in renum and maxtail[q] == 0)
    return b, Automaton(a.alphabet, len(tight), renum[d.start], accept, transitions)


# Language DFAs too large to enumerate, with the weights drawn from their cones.
ORACLE_DFAS = {
    "H4 lex": (
        CoxeterSystem(
            ("s0", "s1", "s2", "s3"),
            ((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
        ),
        "lex",
    ),
    "T246 reduced": (triangle_system(2, 4, 6), "reduced"),
    "T237 reduced": (triangle_system(2, 3, 7), "reduced"),
    "T444 reduced": (triangle_system(4, 4, 4), "reduced"),
    "B4t lex": (affine_b_system(4), "lex"),
    "C4t lex": (affine_c_system(4), "lex"),
}


def coprime_denominators(rng, k):
    """k pairwise coprime denominators from 2..13 in random order."""
    chosen = []
    for d in rng.sample(range(2, 14), 12):
        if all(gcd(d, e) == 1 for e in chosen):
            chosen.append(d)
    assert len(chosen) >= k
    return chosen[:k]


def oracle_weights(rng, a, count):
    """`count` weights inside the cone of `a` whose letters have pairwise
    coprime denominators (K v + p for an interior point v, a fractional p,
    and K doubled until the weight is bounded), then each extreme ray
    times a proper fraction: a boundary weight with zero circuits."""
    dim = len(a.alphabet)
    cone = extreme_rays(HRep(dim, tuple(boundedness_cone_vectors(a))))
    out = []
    for _ in range(count):
        terms = [(rng.randint(1, 4), ray) for ray in cone.rays]
        terms += [(rng.randint(-4, 4), line) for line in cone.lineality]
        v = [sum(c * g[i] for c, g in terms) for i in range(dim)]
        p = []
        for d in coprime_denominators(rng, dim):
            numerator = rng.choice([n for n in range(-2 * d, 2 * d) if gcd(n, d) == 1])
            p.append(Fraction(numerator, d))
        scale = 1
        while True:
            phi = WeightVector(a.alphabet, [scale * x + y for x, y in zip(v, p)])
            if is_bounded(a, phi).bounded:
                break
            scale *= 2
        assert [x.denominator for x in phi.values] == [x.denominator for x in p]
        out.append(phi)
    for ray in cone.rays:
        d = rng.randint(2, 13)
        lam = Fraction(rng.choice([n for n in range(1, d) if gcd(n, d) == 1]), d)
        out.append(WeightVector(a.alphabet, [lam * x for x in ray]))
    return out


class TestFractionOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_DFAS))
    def test_integer_core_matches_fraction_relaxation(self, name):
        system, language = ORACLE_DFAS[name]
        a = language_automaton(system, language)
        rng = random.Random(name)
        zero_circuits = 0
        for phi in oracle_weights(rng, a, 6):
            b, raw = fraction_tight(a, phi)
            cell = trim(raw)
            witnesses = tuple(circuit_free_words(cell))
            assert bound(a, phi) == CellResult(b, witnesses)
            result = cell_automaton(a, phi)
            assert (result.bound, result.witnesses) == (b, witnesses)
            assert to_json(result.cell_nfa) == to_json(raw)
            assert to_json(result.cell_dfa) == to_json(minimize(cell))
            zero_circuits += bool(simple_cycles(cell))
        # the cone of a finite group is the whole space: no rays, no circuits
        assert zero_circuits or name == "H4 lex"

    def test_relax_returns_ints(self):
        best = _relax(4, [0], [(0, 3, 1), (1, -5, 2), (0, -1, 2), (2, 0, 0)])
        assert best == [0, 3, -1, None]
        assert {type(x) for x in best[:3]} == {int}

    def test_bound_is_a_fraction_at_denominator_one(self, fig_246):
        for engine in (bound, cell_automaton):
            result = engine(fig_246, wv(fig_246, "s=1,t=2,u=-5"))
            assert type(result.bound) is Fraction and result.bound == 6
