"""Coxeter-engine tests: minimal roots, automata, normal forms, the ball
oracle, group weight functions, cells, and the Hecke view."""

import hashlib
import importlib.util
import itertools
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcell.automata import (
    Automaton,
    _automaton,
    determinize,
    enumerate_words,
    equivalent,
    minimize,
    reverse,
    to_json,
)
from weightcell.coxeter import (
    CoxeterSystem,
    _subset_automaton,
    ball,
    bilinear_form,
    group_cell,
    hecke_onedim,
    identity,
    is_positive_definite,
    language_automaton,
    length,
    lex_word,
    longest_element,
    minimal_roots,
    field_modulus,
    natural_map,
    parabolic_elements,
    right_mul,
    system_from_json,
    validate_weight,
    weight_classes,
)
import weightcell.coxeter as coxeter_module
from weightcell.cyclo import CycloReal
from weightcell.errors import InputError, ResourceLimitError, UnboundedError
from weightcell.limits import Caps
from weightcell.weights import WeightVector, is_bounded

from conftest import (
    b_series_system,
    dihedral_system,
    f4_system,
    shortlex_key,
    triangle_system,
)


def six_test_systems():
    return [
        ("infinite-dihedral", dihedral_system(0)),
        ("I2(3)", dihedral_system(3)),
        ("I2(4)", dihedral_system(4)),
        ("triangle-333", triangle_system(3, 3, 3)),
        ("triangle-246", triangle_system(2, 4, 6)),
        ("triangle-238", triangle_system(2, 3, 8)),
    ]


# -- independent oracles ------------------------------------------------------


def positive_roots_of_finite_system(sys):
    """Orbit closure of the simple roots under all reflections, keeping the
    positive ones; valid (and finite) exactly for finite systems."""
    B = bilinear_form(sys)
    n = sys.rank
    from weightcell.coxeter import field_modulus

    M = field_modulus(sys)
    zero = CycloReal.zero(M)
    one = CycloReal.from_rational(M, 1)
    simple = []
    for i in range(n):
        vec = [zero] * n
        vec[i] = one
        simple.append(tuple(vec))
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for gamma in frontier:
            for s in range(n):
                c = sum((B[s][j] * gamma[j] for j in range(n)), zero)
                image = list(gamma)
                image[s] = image[s] - 2 * c
                key = tuple(image)
                if all(v.sign() >= 0 for v in key) and key not in roots:
                    roots.add(key)
                    nxt.append(key)
        frontier = nxt
    return roots


def reduced_words_oracle(sys, radius):
    """Every word whose letter-by-letter products never shorten, from the ball."""
    lengths = {g: len(w) for g, w in ball(sys, radius).items()}
    out = []

    def rec(g, word):
        out.append(word)
        if len(word) == radius:
            return
        for s in range(sys.rank):
            h = right_mul(g, s)
            if lengths.get(h) == len(word) + 1:
                rec(h, word + (s,))

    rec(identity(sys), ())
    return sorted(out, key=shortlex_key)


def kept(sys):
    """The results that the system's kernel keeps: the minimal roots and the
    language DFAs, each with its subset-state count."""
    return coxeter_module._kernel(sys)[3]


def subset_dfa(sys, shortlex):
    """The Brink-Howlett subset automaton as built, before minimization."""
    n, columns = _subset_automaton(sys, shortlex)
    return _automaton(sys.generators, n, 0, frozenset(range(n)), columns)


def cyclo_roots(sys, table):
    """The minimal roots of `table` as vectors of field elements."""
    M = field_modulus(sys)
    return [tuple(CycloReal(M, tuple(Fraction(c) for c in v)) for v in root) for root in table.roots]


def reversed_shortlex_reference(sys):
    """The shortlex DFA by the earlier construction: a subset automaton of
    the reversed language (reading s needs alpha_s outside the set, and no
    smaller generator's root in the updated set), then reversed,
    determinized and minimized."""
    action = minimal_roots(sys).action
    index = {frozenset(): 0}
    queue, edges = [frozenset()], []
    for subset in queue:
        for s in range(sys.rank):
            if s in subset:
                continue
            updated = frozenset({s} | {action[s][r] for r in subset if action[s][r] >= 0})
            if any(t in updated for t in range(s)):
                continue
            if updated not in index:
                index[updated] = len(index)
                queue.append(updated)
            edges.append((index[subset], s, index[updated]))
    raw = Automaton(sys.generators, len(index), 0, frozenset(range(len(index))), tuple(edges))
    return minimize(determinize(reverse(raw)))


def _load_benchmark_systems():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "systems.py"
    spec = importlib.util.spec_from_file_location("benchmark_systems", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: CoxeterSystem(*data) for name, data in module.SYSTEMS.items()}


BENCHMARK_SYSTEMS = _load_benchmark_systems()


# sha256 of to_json(language_automaton(sys, language)) for every benchmark
# system and language whose build takes under a second, and for D5t lex;
# `test_direct_build_matches_minimize` sends both of its sides through the
# same Hopcroft core, so only fixed digests see a change in that core
LANGUAGE_DFA_DIGESTS = {
    ("H4", "lex"): "b363cbc40233bef5699a909248c4114fe9982dc7259459617c6971e3788b8d62",
    ("H4", "reduced"): "9c77cf9efde4322a5d675a115ff53012beb8820eb00759686a1a1c3712b4a4d7",
    ("F4", "lex"): "34a9208c20633f939f09810578dd2a0187563dca3b0224d309ea08e8d46717ed",
    ("F4", "reduced"): "2adbe4b771962cfce954ea2b8d3f870b2715d8a5ddfd9a10083d7b124028815b",
    ("B4", "lex"): "0376b3df6eeee2bf92e8a721bc28f2082aefcba60f3197260b65688c73c51516",
    ("B4", "reduced"): "17f7edd99a756178369e5a82f5fdd6df310cec4a5d868fff85658daa474c06ec",
    ("B5", "lex"): "1f4e1913e9f70837cc67d2bd48b03c7fcd43719fed3e7368f7440038b8cf3adc",
    ("B5", "reduced"): "2f5e6d8249860de3d335d2bee3893d7714bb8fe22fdb39669f8a25821e3ef63c",
    ("G2t", "lex"): "9b918b0d63de8f9df8955f74836fb236e0061a59f8e988d97ef0c67361adb01f",
    ("G2t", "reduced"): "ba25321f1c82543bfacb790a9dc81c27942627188656b980e637971767302fb7",
    ("B3t", "lex"): "88e886099257ef99d2278d46ee930fa05b84c43d2f33764d8d3f1b8d8e360ab7",
    ("B3t", "reduced"): "9dd6f0a29e80f4ed9d77cc52e16dc77424e1f21e1c31b87c70b709e57bb9d0b0",
    ("B4t", "lex"): "bb6e6fcf2b34f9f53f08405131c3b4cd0f64e6728ad5bc002e7206d32c29d8fd",
    ("B4t", "reduced"): "36e6dc87ecbcb8abf627759bad1d4982d2fd1ecff744b1003eaa8a9254474c76",
    ("C4t", "lex"): "ec00c03c1ab0f34f2f6cbefafafcf9c3437e9d17ae452871b0ba2135e192c807",
    ("C4t", "reduced"): "e6cbae7b3a59028afad0b4b4a8e121b97b90d8279f9701039fc5d87de6403057",
    ("F4t", "lex"): "aa1aec36c02b4c5588dc21b6dccd2885ce5a084f57a998e53d984edd1c5c3a27",
    ("F4t", "reduced"): "f0facfde44ff820af839d046d05d0d11006100110bfd34483afbc74c9a74dd88",
    ("D5t", "lex"): "9787082aca90bd6d7bafa2457aebeb900958967d0e3e6a7405f822c4a6873688",
    ("H353", "lex"): "95e4c23e7e7e55ad620fa5f84af26ea8f32dcece14eb882ec05e681fe63e5dff",
    ("H353", "reduced"): "0c327d8edb323adeba3185ce4b756a354c7bef9d9616f53e32de9389504685b6",
    ("C303", "lex"): "5f377b5bc2d63e5d8d6a319366f7d293eca4119accdfbb5b488d783c7ac6119f",
    ("C303", "reduced"): "5027fa38b35f3e6eda1e9e869bc264c33a3b084821690ffdf89e3b94b7b8aa54",
    ("T2711", "lex"): "468d863455cfe8b4a21a0b4b3c5362617ed7f17177f4fb32e929e4925fa61fc6",
    ("T2711", "reduced"): "344c5ee108874ff1265a9b0dcf215c3986f714ffec51f7cfdfda260cbebfc244",
    ("T345", "lex"): "32682dcde3f92405966d14f2b7a777ee3e46ed8b2b7a7e851acfe4c226db4b24",
    ("T345", "reduced"): "87d9402d5dd8d43fa04d4b79eed964c9ce7c4cc446aeb5fbe19ddeb1efda225f",
    ("T246", "lex"): "0b4eeb3def8831a92655f8835aa8c0404d8abc6a26825e7fce70aae6e403fbb7",
    ("T246", "reduced"): "6449f409a1e706686e607eb8c186cfd4c2affad49a60ace78469275f4538f649",
    ("T237", "lex"): "45845d6fb83197939fbbd01d71506a051355eee5ed83d0f8f899109a0c60b83d",
    ("T237", "reduced"): "087ed380dedd2c04bf4448bc82e6fa1354f4d33d817b6da92e0af04ab831f399",
    ("T444", "lex"): "b063781f39752ad9c1aef0411dcd6181c1b7ea3425bb64d47f0fc7008c771800",
    ("T444", "reduced"): "6e4e365e56382a630437d9904ff465ecae783179a7453124d41d312011200f11",
    ("I2_6", "lex"): "2fb43e0a3653d97b9e1b65e23080bce161dede3902a80e1953b6ce26266628c2",
    ("I2_6", "reduced"): "10cc1f32a445fbf30d6b0f00e80ded9b6812b7b7d51508a4d51b1f5221efcad6",
    ("I2_8", "lex"): "c0bf8eb406865688c9883cccf931af9c6f14a29a1420ebd6c68c47902467b393",
    ("I2_8", "reduced"): "11cd3d1cfed081de1d1940faf1d32e1fe4d09557e87f7c724956350b6ccdfc16",
    ("I2_10", "lex"): "bb51dbd4bbc0c942610430f53056e45e182bef01fd876f1b32296cc7a21b9921",
    ("I2_10", "reduced"): "bcae552fe2803833f5344a2478a52e0925d8c4baa73a76b03a60f6af79590fb2",
    ("I2_12", "lex"): "39fc061ddf91c035dcb6550bc82239890b31a54a3982e18810e7a90118933260",
    ("I2_12", "reduced"): "0ccd29d2ee55f84df27c035afb0bdcad5a1d93ca71cbda99e8f5815cfd1e83e3",
}


# -- systems ------------------------------------------------------------------


class TestCoxeterSystem:
    def test_validation(self):
        with pytest.raises(InputError):
            CoxeterSystem(("s", "t"), ((1, 2), (3, 1)))
        with pytest.raises(InputError):
            CoxeterSystem(("s", "t"), ((2, 3), (3, 1)))
        with pytest.raises(InputError):
            CoxeterSystem(("s", "s"), ((1, 3), (3, 1)))
        with pytest.raises(InputError):
            CoxeterSystem(("s", "t"), ((1, 1), (1, 1)))

    def test_json_roundtrip(self, sys_246):
        doc = {"generators": list(sys_246.generators), "matrix": [list(r) for r in sys_246.matrix]}
        assert system_from_json(json.dumps(doc)) == sys_246

    def test_json_infinite_encoding(self):
        sys = system_from_json('{"generators": ["s", "t"], "matrix": [[1, 0], [0, 1]]}')
        assert sys.bond(0, 1) == 0

    def test_reorder(self, sys_246):
        reordered = sys_246.reorder(("u", "t", "s"))
        assert reordered.generators == ("u", "t", "s")
        assert reordered.bond(0, 1) == 6  # the t-u bond
        with pytest.raises(InputError):
            sys_246.reorder(("s", "t"))


class TestMinimalRoots:
    def test_infinite_dihedral_has_only_simple_roots(self):
        table = minimal_roots(dihedral_system(0))
        assert table.n_roots == 2

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_finite_dihedral_counts_match_positive_roots(self, m):
        sys = dihedral_system(m)
        table = minimal_roots(sys)
        assert table.n_roots == m
        assert set(cyclo_roots(sys, table)) == positive_roots_of_finite_system(sys)

    def test_b2(self):
        assert minimal_roots(dihedral_system(4)).n_roots == 4

    def test_all_minimal_roots_are_positive(self, sys_246):
        table = minimal_roots(sys_246)
        for root in cyclo_roots(sys_246, table):
            assert all(c.sign() >= 0 for c in root)
            assert any(c.sign() > 0 for c in root)


class TestGroupArithmetic:
    def test_generators_are_involutions(self, sys_246):
        for s in range(3):
            g = right_mul(identity(sys_246), s)
            assert right_mul(g, s).is_identity()

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_braid_orders(self, m):
        sys = dihedral_system(m)
        g = identity(sys)
        for _ in range(m):
            g = right_mul(g, 0)
            g = right_mul(g, 1)
        assert g.is_identity()

    def test_lex_word_identity(self, sys_246):
        assert lex_word(sys_246, identity(sys_246)) == ()

    def test_b2_longest(self):
        sys = dihedral_system(4)
        w0 = longest_element(sys)
        assert lex_word(sys, w0) == (0, 1, 0, 1)
        assert length(sys, w0) == 4

    def test_commuting_letters_sorted(self, sys_246):
        g = natural_map(sys_246, (2, 0))  # u then s, which commute
        assert lex_word(sys_246, g) == (0, 2)

    def test_left_descents(self, sys_246):
        g = natural_map(sys_246, (1, 0, 1))  # t s t
        assert length(sys_246, natural_map(sys_246, (1, 1, 0, 1))) < length(sys_246, g)

    def test_ball_layers(self):
        sys = triangle_system(3, 3, 3)
        b = ball(sys, 0)
        assert list(b.values()) == [()]
        b6 = ball(sys, 6)
        a = language_automaton(sys, "lex")
        words = enumerate_words(a, 6)
        assert sorted(b6.values(), key=shortlex_key) == words

    def test_ball_saturates_finite_groups(self):
        assert len(ball(dihedral_system(4), 100)) == 8
        assert len(ball(b_series_system(3), 100)) == 48

    def test_distinct_elements_distinct_matrices(self):
        sys = dihedral_system(4)
        mats = {g.mat for g in ball(sys, 100)}
        assert len(mats) == 8


def reflection_product(sys, word):
    """The product of the generator matrices of word, left to right, built
    over CycloReal from the bilinear form: column j of sigma_s is
    alpha_j - 2B(alpha_s, alpha_j) alpha_s."""
    B = bilinear_form(sys)
    n = sys.rank
    M = field_modulus(sys)
    zero, one = CycloReal.zero(M), CycloReal.from_rational(M, 1)
    g = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for s in word:
        sigma = [
            [(one if i == j else zero) - (2 * B[s][j] if i == s else zero) for j in range(n)]
            for i in range(n)
        ]
        g = [[sum((g[i][k] * sigma[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]
    return g


def as_cyclo(sys, mat):
    M = field_modulus(sys)
    return [[CycloReal(M, tuple(Fraction(c) for c in entry)) for entry in row] for row in mat]


@st.composite
def random_systems_and_words(draw):
    """Rank 3 or 4, labels from {2, 3, 4, 5, 6, infinity}, a word of <= 5 letters."""
    n = draw(st.integers(3, 4))
    mat = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.sampled_from((2, 3, 4, 5, 6, 0)))
    sys = CoxeterSystem(tuple("stuv"[:n]), tuple(map(tuple, mat)))
    word = tuple(draw(st.lists(st.integers(0, n - 1), max_size=5)))
    return sys, word


class TestIntegerKernel:
    @given(random_systems_and_words())
    @settings(max_examples=40, deadline=None)
    def test_natural_map_matches_reflection_product(self, case):
        sys, word = case
        g = natural_map(sys, word)
        assert as_cyclo(sys, g.mat) == reflection_product(sys, word)
        assert as_cyclo(sys, g.inv) == reflection_product(sys, word[::-1])

    @given(random_systems_and_words())
    @settings(max_examples=40, deadline=None)
    def test_lex_word_matches_ball(self, case):
        sys, word = case
        g = natural_map(sys, word)
        assert lex_word(sys, g) == ball(sys, len(word))[g]


class TestFiniteness:
    def test_positive_definite_families(self):
        assert is_positive_definite(dihedral_system(5))
        assert is_positive_definite(b_series_system(4))
        assert is_positive_definite(f4_system())

    def test_not_positive_definite(self, sys_246, sys_333):
        assert not is_positive_definite(sys_333)  # affine
        assert not is_positive_definite(sys_246)  # hyperbolic
        assert not is_positive_definite(dihedral_system(0))

    def test_subset(self, sys_246):
        assert is_positive_definite(sys_246, (0, 1))  # finite dihedral inside
        with pytest.raises(InputError):
            longest_element(sys_246)

    def test_rank_three_against_the_angle_sum(self):
        # a triangle group is finite iff 1/p + 1/q + 1/r > 1, with 1/inf = 0
        labels = (2, 3, 4, 5, 6, 0)
        for p, q, r in itertools.product(labels, repeat=3):
            angle_sum = sum(Fraction(1, m) for m in (p, q, r) if m)
            assert is_positive_definite(triangle_system(p, q, r)) == (angle_sum > 1), (p, q, r)

    def test_rank_two(self):
        for m in (0, *range(2, 25)):
            assert is_positive_definite(dihedral_system(m)) == (m != 0), m

    def test_benchmark_systems(self):
        finite = {"H4", "F4", "B4", "B5", "I2_6", "I2_8", "I2_10", "I2_12"}
        for name, sys in BENCHMARK_SYSTEMS.items():
            assert is_positive_definite(sys) == (name in finite), name

    def test_every_subset_of_246(self, sys_246):
        for size in range(4):
            for subset in itertools.permutations(range(3), size):
                assert is_positive_definite(sys_246, subset) == (size < 3), subset

    @pytest.mark.parametrize("subset", [(0, 0), (3,), (-1,), (0, 1, 1)])
    def test_bad_subset_raises(self, sys_246, subset):
        with pytest.raises(InputError):
            is_positive_definite(sys_246, subset)

    def test_parabolic_elements(self, sys_246):
        assert len(parabolic_elements(sys_246, (0, 1))) == 8  # I2(4)
        for sys, subset in ((b_series_system(3), (0, 2)), (f4_system(), (1, 2, 3))):
            elements = parabolic_elements(sys, subset)
            assert all(word == lex_word(sys, g) for g, word in elements.items())
        with pytest.raises(InputError):
            parabolic_elements(triangle_system(3, 3, 3), (0, 1, 2))


class TestAutomata:
    def test_infinite_dihedral_reduced(self, ex_dihedral):
        from weightcell.automata import minimize

        dfa = minimize(subset_dfa(dihedral_system(0), shortlex=False))
        assert equivalent(dfa, ex_dihedral)
        assert dfa.n_states == 3

    def test_a2_reduced_words(self):
        sys = dihedral_system(3)
        words = enumerate_words(subset_dfa(sys, shortlex=False), 3)
        # 6 elements, 7 reduced words: the longest element has two
        assert len(words) == 7
        texts = {"".join("st"[i] for i in w) for w in words}
        assert texts == {"", "s", "t", "st", "ts", "sts", "tst"}

    def test_shortlex_333_matches_reference(self, fig_333, sys_333):
        built = language_automaton(sys_333, "lex")
        assert built.n_states == 13
        assert to_json(built) == to_json(fig_333)

    def test_shortlex_246_matches_reference(self, fig_246, sys_246):
        from weightcell.automata import determinize, minimize

        built = language_automaton(sys_246, "lex")
        assert built.n_states == 13
        canonical_reference = minimize(determinize(fig_246))
        assert to_json(built) == to_json(canonical_reference)
        assert equivalent(built, fig_246)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_shortlex_232m_state_count(self, m):
        sys = triangle_system(2, 3, 2 * m)
        assert language_automaton(sys, "lex").n_states == 2 * m + 6

    @pytest.mark.parametrize("name,sys", six_test_systems())
    def test_language_oracles(self, name, sys):
        radius = 6
        b = ball(sys, radius)
        lex_words = sorted(b.values(), key=shortlex_key)
        assert enumerate_words(language_automaton(sys, "lex"), radius) == lex_words
        assert (
            enumerate_words(subset_dfa(sys, shortlex=False), radius)
            == reduced_words_oracle(sys, radius)
        )

    @given(random_systems_and_words())
    @settings(max_examples=30, deadline=None)
    def test_language_oracles_on_random_systems(self, case):
        # both subset automata, and the minimized DFAs built from them
        sys, _ = case
        radius = 4
        lex_words = sorted(ball(sys, radius).values(), key=shortlex_key)
        reduced_words = reduced_words_oracle(sys, radius)
        for shortlex, words in ((True, lex_words), (False, reduced_words)):
            assert enumerate_words(subset_dfa(sys, shortlex), radius) == words
            assert enumerate_words(language_automaton(sys, "lex" if shortlex else "reduced"), radius) == words
        assert to_json(language_automaton(sys, "lex")) == to_json(reversed_shortlex_reference(sys))

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SYSTEMS))
    def test_shortlex_matches_reversed_construction(self, name):
        sys = BENCHMARK_SYSTEMS[name]
        assert to_json(language_automaton(sys, "lex")) == to_json(reversed_shortlex_reference(sys))

    @pytest.mark.parametrize("name,states", [("H4", 5_643), ("F4t", 12_268), ("D5t", 45_134)])
    def test_forward_shortlex_state_counts(self, name, states):
        # the reversed construction's subset automata have 14,400, 28,561
        # and 59,049 states
        n_states, _ = _subset_automaton(BENCHMARK_SYSTEMS[name], shortlex=True)
        assert n_states == states

    def test_lex_build_peak_memory(self):
        # the subset build and the Hopcroft core keep transitions in flat
        # columns of shared ints: at most 300 traced bytes per subset
        # transition (one tuple per transition and per-state incoming lists
        # took 380-394)
        sys = BENCHMARK_SYSTEMS["F4t"]
        minimal_roots(sys)  # warms minimal_roots(sys, caps) too
        raw = subset_dfa(sys, shortlex=True)
        assert (raw.n_states, len(raw.transitions)) == (12_268, 13_624)
        del raw
        kept(sys).pop("lex", None)  # a cold build
        tracemalloc.start()
        try:
            language_automaton(sys, "lex")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 300 * 13_624, peak / 13_624

    def test_forward_shortlex_state_cap(self):
        sys = BENCHMARK_SYSTEMS["D5t"]
        assert language_automaton(sys, "lex", Caps(states=46_000)).n_states == 141
        with pytest.raises(ResourceLimitError) as exc:
            language_automaton(sys, "lex", Caps(states=45_000))
        assert (exc.value.what, exc.value.cap) == ("automaton states", 45_000)

    @pytest.mark.parametrize("language", ["lex", "reduced"])
    @pytest.mark.parametrize("name", sorted(BENCHMARK_SYSTEMS))
    def test_direct_build_matches_minimize(self, name, language):
        # the builders feed explore's columns straight to the Hopcroft core
        sys = BENCHMARK_SYSTEMS[name]
        raw = subset_dfa(sys, shortlex=language == "lex")
        assert to_json(language_automaton(sys, language)) == to_json(minimize(raw))

    @pytest.mark.parametrize("name,language", sorted(LANGUAGE_DFA_DIGESTS))
    def test_language_dfa_digest(self, name, language):
        built = to_json(language_automaton(BENCHMARK_SYSTEMS[name], language))
        assert hashlib.sha256(built.encode()).hexdigest() == LANGUAGE_DFA_DIGESTS[name, language]

    @pytest.mark.parametrize("name", ["H4", "F4", "B4", "B5", "I2_12"])
    def test_finite_reduced_automaton_is_minimal(self, name, monkeypatch):
        # one state per element, and distinct elements have distinct cone types
        sys = BENCHMARK_SYSTEMS[name]
        raw = subset_dfa(sys, shortlex=False)
        assert to_json(minimize(raw)) == to_json(raw)

        def no_minimize(*args):
            raise AssertionError("a finite group's reduced words were minimized")

        monkeypatch.setattr(coxeter_module, "_minimal", no_minimize)
        kept(sys).pop("reduced", None)  # a cold build
        assert to_json(language_automaton(sys, "reduced")) == to_json(raw)

    def test_finite_reduced_state_cap(self):
        with pytest.raises(ResourceLimitError) as exc:
            language_automaton(BENCHMARK_SYSTEMS["H4"], "reduced", Caps(states=14_399))
        assert (exc.value.what, exc.value.cap) == ("automaton states", 14_399)

    def test_reduced_minimal_dfa_cached(self):
        sys = BENCHMARK_SYSTEMS["C4t"]
        assert language_automaton(sys, "reduced") is language_automaton(sys, "reduced")

    def test_lex_language_prefix_closed(self, sys_246):
        a = language_automaton(sys_246, "lex")
        words = set(enumerate_words(a, 8))
        for w in words:
            assert w[:-1] in words or not w

    def test_word_counts_match_ball_growth(self):
        sys = triangle_system(2, 3, 6)
        a = language_automaton(sys, "lex")
        words = enumerate_words(a, 8)
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        ball_by_len = {}
        for word in ball(sys, 8).values():
            ball_by_len[len(word)] = ball_by_len.get(len(word), 0) + 1
        assert by_len == ball_by_len


class TestKeptResults:
    """The kernel keeps a system's minimal roots and language DFAs, keyed by
    the system alone: caps only decide whether a kept result is returned,
    and a kept result raises what a cold build under the same caps would."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sys, *caps, **kw: minimal_roots(sys, *caps, **kw),
            lambda sys, *caps, **kw: language_automaton(sys, "lex", *caps, **kw),
            lambda sys, *caps, **kw: language_automaton(sys, "reduced", *caps, **kw),
        ],
        ids=["roots", "lex", "reduced"],
    )
    def test_every_spelling_returns_one_object(self, call):
        sys = triangle_system(2, 3, 7)
        kept(sys).clear()
        first = call(sys)
        assert call(sys, Caps()) is first
        assert call(sys, caps=Caps()) is first
        assert call(sys, Caps(cycles=5)) is first

    def test_a_failed_build_keeps_nothing(self):
        sys = triangle_system(2, 3, 7)
        kept(sys).clear()
        with pytest.raises(ResourceLimitError) as exc:
            language_automaton(sys, "lex", Caps(roots=3))
        assert (exc.value.what, kept(sys)) == ("minimal roots", {})
        with pytest.raises(ResourceLimitError) as exc:
            language_automaton(sys, "lex", Caps(states=3))
        assert (exc.value.what, set(kept(sys))) == ("automaton states", {"roots"})
        a = language_automaton(sys, "lex", Caps(states=1_000))
        assert a is language_automaton(sys, "lex")
        assert set(kept(sys)) == {"roots", "lex"}

    def test_a_kept_dfa_raises_where_its_cold_build_does(self):
        # at exactly the subset-state count, and at the roots before the
        # states when both caps are too small
        sys = triangle_system(2, 3, 7)
        n, _ = _subset_automaton(sys, shortlex=True)
        kept(sys).pop("lex", None)
        for _ in range(2):  # cold, then a hit
            for caps, stage, cap in (
                (Caps(roots=3, states=1), "minimal roots", 3),
                (Caps(states=n - 1), "automaton states", n - 1),
            ):
                with pytest.raises(ResourceLimitError) as exc:
                    language_automaton(sys, "lex", caps)
                assert (exc.value.what, exc.value.cap) == (stage, cap)
            assert language_automaton(sys, "lex", Caps(states=n)) is language_automaton(sys, "lex")

    def test_the_kernel_keeps_only_roots_and_languages(self):
        sys = f4_system()
        kept(sys).clear()
        minimal_roots(sys)
        language_automaton(sys, "lex")
        language_automaton(sys, "reduced")
        is_positive_definite(sys, (0, 1))
        longest_element(sys)
        ball(sys, 3)
        parabolic_elements(sys, (2, 3))
        group_cell(sys, dict.fromkeys(sys.generators, 1), "lex")
        assert set(kept(sys)) == {"roots", "lex", "reduced"}

    def test_the_simple_roots_are_never_capped(self):
        # a cold build adds the simple roots before it reads the cap, so a
        # cap below the rank raises only if there is a further root
        a1a1a1 = CoxeterSystem(("a", "b", "c"), ((1, 2, 2), (2, 1, 2), (2, 2, 1)))
        a2 = dihedral_system(3)
        kept(a1a1a1).clear()
        kept(a2).clear()
        assert minimal_roots(a1a1a1, Caps(roots=1)).n_roots == 3  # cold
        assert minimal_roots(a1a1a1, Caps(roots=1)) is kept(a1a1a1)["roots"]  # a hit
        for hit in (False, True):
            with pytest.raises(ResourceLimitError) as exc:
                minimal_roots(a2, Caps(roots=1))
            assert (exc.value.what, exc.value.cap, "roots" in kept(a2)) == ("minimal roots", 1, hit)
            assert minimal_roots(a2).n_roots == 3


class TestWeightFunctions:
    def test_validate_all_odd_bonds(self, sys_333):
        assert not validate_weight(sys_333, {"s": 0, "t": 1, "u": -1})
        assert validate_weight(sys_333, {"s": 2, "t": 2, "u": 2})

    def test_validate_no_odd_bonds(self, sys_246):
        assert validate_weight(sys_246, {"s": 1, "t": 2, "u": -5})

    def test_validate_affine_c_pattern(self):
        from conftest import affine_c_system

        sys = affine_c_system(2)
        assert validate_weight(sys, {"s0": 7, "s1": -2, "s2": 3})

    def test_weight_classes(self, sys_333, sys_246):
        assert weight_classes(sys_333) == ((0, 1, 2),)
        assert weight_classes(sys_246) == ((0,), (1,), (2,))
        assert weight_classes(triangle_system(2, 3, 8)) == ((0, 1), (2,))

    def test_compatibility_equal_weights_on_reduced_words(self, sys_246):
        phi = WeightVector(sys_246.generators, (1, 2, -5))
        from weightcell.weights import weight_of_word

        b = ball(sys_246, 6)
        for g, word in b.items():
            values = set()
            for w in reduced_words_oracle(sys_246, 6):
                if len(w) == len(word) and natural_map(sys_246, w) == g:
                    values.add(weight_of_word(phi, w))
            assert len(values) == 1


class TestGroupCell:
    def test_246_intro(self, sys_246):
        result = group_cell(sys_246, {"s": 1, "t": 2, "u": -5})
        assert result.bound == 6
        a = language_automaton(sys_246, "lex")
        from weightcell.automata import Automaton

        target = Automaton(
            ("s", "t", "u"), 8, 0, frozenset({4}),
            (
                (0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 4),
                (4, 2, 5), (5, 1, 6), (6, 0, 7), (7, 1, 4),
            ),
        )
        assert equivalent(result.cell_dfa, target)
        assert len(result.X) > 0 and len(result.Y) == 92

    def test_246_phi3_witnesses(self, sys_246):
        result = group_cell(sys_246, {"s": -1, "t": 1, "u": -1})
        assert result.bound == 1
        a = language_automaton(sys_246, "lex")
        witness_texts = {a.format_word(w) for w in result.witnesses}
        # "tutst" belongs here: the exhaustive check below shows it is the
        # unique reduced word of its element (hence its shortlex normal
        # form), it is circuit-free, and its weight is 3 - 1 - 1 = 1
        assert witness_texts == {
            "t", "tst", "tut", "tstut", "tutst", "tutut", "tstutut", "tututst"
        }

    def test_tutst_is_the_unique_word_of_its_element(self, sys_246):
        from itertools import product

        a = language_automaton(sys_246, "lex")
        g = natural_map(sys_246, a.word("tutst"))
        matches = [
            cand
            for n in range(6)
            for cand in product(range(3), repeat=n)
            if natural_map(sys_246, cand) == g
        ]
        assert matches == [a.word("tutst")]

    def test_zero_weight_cell_is_everything(self, sys_246):
        result = group_cell(sys_246, {"s": 0, "t": 0, "u": 0})
        assert result.bound == 0
        assert equivalent(result.cell_dfa, language_automaton(sys_246, "lex"))

    def test_invalid_weight_rejected(self, sys_333):
        with pytest.raises(InputError):
            group_cell(sys_333, {"s": 0, "t": 1, "u": -1})

    def test_unbounded_rejected(self, sys_333):
        with pytest.raises(UnboundedError) as info:
            group_cell(sys_333, {"s": 1, "t": 1, "u": 1})
        assert info.value.word

    def test_reduced_language_same_bound(self, sys_246):
        lex = group_cell(sys_246, {"s": 1, "t": 2, "u": -5}, "lex")
        red = group_cell(sys_246, {"s": 1, "t": 2, "u": -5}, "reduced")
        assert lex.bound == red.bound == 6

    def test_boundedness_criterion_via_X(self, sys_246):
        result = group_cell(sys_246, {"s": 1, "t": 2, "u": -5})
        phi = WeightVector(sys_246.generators, (1, 2, -5))
        from weightcell.weights import weight_of_word

        for x in result.X:
            assert weight_of_word(phi, lex_word(sys_246, x)) <= 0

    def test_one_circuit_search_per_cell(self, sys_246, monkeypatch):
        # the bound, witnesses and cell come from one core call; only X
        # needs the circuits a second time
        import weightcell.weights as weights

        calls = []
        original = weights.simple_cycles

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(weights, "simple_cycles", counting)
        group_cell(sys_246, {"s": 1, "t": 2, "u": -5})
        assert len(calls) == 2

    def test_x_and_y_are_computed_on_first_access(self, sys_246, monkeypatch):
        import weightcell.coxeter as coxeter

        calls = []
        original = coxeter.natural_map

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(coxeter, "natural_map", counting)
        result = group_cell(sys_246, {"s": 1, "t": 2, "u": -5})
        assert not calls
        X = result.X
        assert len(calls) == len(result.circuit_words)
        assert result.X is X and len(calls) == len(result.circuit_words)  # cached

    @pytest.mark.parametrize(
        "sys,phi",
        [
            (triangle_system(2, 4, 6), {"s": 1, "t": 2, "u": -5}),
            (triangle_system(2, 3, 7), {"s": -1, "t": -1, "u": -1}),
            (f4_system(), {"s1": 1, "s2": 1, "s3": -1, "s4": -1}),
            (b_series_system(4), {"s1": -1, "s2": -1, "s3": -1, "s4": 2}),
        ],
        ids=["246", "237", "F4", "B4"],
    )
    def test_lex_words_count_elements(self, sys, phi):
        # one shortlex word per element, and circuit words are factors of
        # shortlex words: the CLI's X_size and Y_size count words
        result = group_cell(sys, phi, "lex")
        assert len(result.X) == len(result.circuit_words)
        assert len(result.Y) == len(result.free_words)

    def test_238_zero_circuit_infinite_cell(self):
        # the circuits with letter counts (1, 3, 3) weigh 0, so the cell is
        # infinite: its DFA accepts words longer than every witness
        sys = triangle_system(2, 3, 8)
        a = language_automaton(sys, "lex")
        phi = WeightVector(sys.generators, (-3, -3, 4))
        assert (1, 3, 3) in is_bounded(a, phi).inequalities
        result = group_cell(sys, phi)
        longest = max(map(len, result.witnesses))
        words = enumerate_words(result.cell_dfa, 2 * a.n_states)
        assert any(len(w) > longest for w in words)


class TestHecke:
    def test_equal_parameter_phi3(self, sys_246):
        result = hecke_onedim(
            sys_246, {"s": 1, "t": 1, "u": 1}, {"s": "-", "t": "+", "u": "-"}
        )
        assert result.phi.values == (-1, 1, -1)
        assert result.bound == 1
        reference = group_cell(sys_246, {"s": -1, "t": 1, "u": -1})
        assert equivalent(result.cell_dfa, reference.cell_dfa)

    def test_all_minus_signs(self, sys_246):
        result = hecke_onedim(
            sys_246, {"s": 2, "t": 1, "u": 3}, {"s": "-", "t": "-", "u": "-"}
        )
        assert result.bound == 0
        assert enumerate_words(result.cell_dfa, 6) == [()]

    def test_all_plus_on_infinite_group_unbounded(self, sys_246):
        with pytest.raises(UnboundedError) as exc:
            hecke_onedim(
                sys_246, {"s": 1, "t": 1, "u": 1}, {"s": "+", "t": "+", "u": "+"}
            )
        with pytest.raises(UnboundedError) as on_group:
            group_cell(sys_246, {"s": 1, "t": 1, "u": 1})
        assert str(exc.value) == str(on_group.value) == "weight function is unbounded on the group"
        assert (exc.value.cycle, exc.value.word) == (on_group.value.cycle, on_group.value.word)

    def test_d5t_all_minus_reads_only_the_cell(self):
        # the lex DFA has more than 10^6 circuit-free words; the bound and
        # the cell come from its tight sub-automaton without them
        sys = BENCHMARK_SYSTEMS["D5t"]
        psi, signs = {n: 1 for n in sys.generators}, {n: "-" for n in sys.generators}
        result = hecke_onedim(sys, psi, signs)
        assert result.bound == 0
        assert enumerate_words(result.cell_dfa, 6) == [()]

    def test_sign_pattern_must_respect_odd_bonds(self, sys_333):
        with pytest.raises(InputError):
            hecke_onedim(
                sys_333, {"s": 1, "t": 1, "u": 1}, {"s": "+", "t": "-", "u": "+"}
            )

    def test_psi_must_be_positive_integers(self, sys_246):
        with pytest.raises(InputError):
            hecke_onedim(
                sys_246, {"s": 0, "t": 1, "u": 1}, {"s": "-", "t": "+", "u": "-"}
            )
