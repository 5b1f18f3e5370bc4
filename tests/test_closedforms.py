"""Closed-form spherical and affine results, cross-checked against the group
oracle (full-group brute force on the small cases) and the cone machinery."""

import random
from fractions import Fraction

import pytest

from weightcell import closedforms
from weightcell.closedforms import (
    _bn_extremal_words,
    affine_cone,
    bn_bound,
    dihedral_bound,
    f4_bound,
    spherical_nonneg,
)
from weightcell.cones import HRep, implies, remove_redundant, same_cone
from weightcell.automata import enumerate_words
from weightcell.coxeter import CoxeterSystem, ball, group_cell, lex_word, longest_element, natural_map
from weightcell.errors import InputError
from weightcell.limits import Caps
from weightcell.weights import WeightVector, weight_of_word

from conftest import b_series_system, dihedral_system, f4_system, triangle_system


# F4's candidate elements, as words in 0-based letters: 11 core words, their
# images under the diagram flip 1<->4, 2<->3, the identity and the longest
# element
F4_CORE_WORDS = (
    "121", "121321", "12132132", "1213214321", "121321432132", "121323432132",
    "121321324321", "12132132432132", "1213214321324321", "121321324321324321",
    "121321324321323432132",
)


def f4_candidates() -> list:
    words = [tuple(int(ch) - 1 for ch in text) for text in F4_CORE_WORDS]
    words += [tuple(3 - i for i in w) for w in words]
    sys = f4_system()
    return words + [(), lex_word(sys, longest_element(sys))]


def brute_force(sys, weights_by_index, radius=200):
    """Exact max and argmax of the weight over the whole (finite) group."""
    phi = WeightVector(sys.generators, tuple(weights_by_index))
    best = None
    argmax = set()
    for g, word in ball(sys, radius).items():
        value = weight_of_word(phi, word)
        if best is None or value > best:
            best, argmax = value, {word}
        elif value == best:
            argmax.add(word)
    return best, argmax


class TestSphericalNonneg:
    def test_rejects_assignment_that_is_not_a_weight_function(self):
        # H3's bonds 5 and 3 are both odd, so a weight function is constant
        h3 = CoxeterSystem(("a", "b", "c"), ((1, 5, 2), (5, 1, 3), (2, 3, 1)))
        with pytest.raises(InputError, match="does not extend to a weight function"):
            spherical_nonneg(h3, {"a": 1, "b": 0, "c": 0})
        assert spherical_nonneg(h3, {"a": 1, "b": 1, "c": 1}).bound == 15

    def test_b2_all_ones(self):
        sys = dihedral_system(4)
        result = spherical_nonneg(sys, {"s": 1, "t": 1})
        assert result.bound == 4
        assert result.cell_texts() == ("stst",)

    def test_a2_all_ones(self):
        sys = dihedral_system(3)
        result = spherical_nonneg(sys, {"s": 1, "t": 1})
        assert result.bound == 3

    def test_b2_zero_on_t(self):
        sys = dihedral_system(4)
        result = spherical_nonneg(sys, {"s": 1, "t": 0})
        best, argmax = brute_force(sys, (1, 0))
        assert result.bound == best
        assert set(result.cell) == argmax
        assert len(result.cell) == 2

    def test_rejects_infinite(self):
        with pytest.raises(InputError):
            spherical_nonneg(triangle_system(3, 3, 3), {"s": 1, "t": 1, "u": 1})

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            spherical_nonneg(dihedral_system(4), {"s": -1, "t": 1})

    def test_rejects_foreign_alphabet(self):
        with pytest.raises(InputError):
            spherical_nonneg(dihedral_system(4), WeightVector(("x", "y"), (1, 0)))

    @pytest.mark.parametrize(
        "sys, values",
        [
            (b_series_system(3), (1, 1, 0)),
            (b_series_system(3), (0, 0, 2)),
            # every bond of H3 is odd, so a weight with a zero is zero on all
            (CoxeterSystem(("s1", "s2", "s3"), ((1, 5, 2), (5, 1, 3), (2, 3, 1))), (0, 0, 0)),
            (f4_system(), (1, 1, 0, 0)),
            (f4_system(), (0, 0, 3, 3)),
        ],
    )
    def test_zero_weights_match_the_group_cell(self, sys, values):
        # the coset w0 W_J against the tight sub-automaton of the shortlex
        # language: same bound, and the cell is the finite language of the
        # cell DFA
        phi = WeightVector(sys.generators, values)
        result = spherical_nonneg(sys, phi)
        oracle = group_cell(sys, phi, "lex")
        assert result.bound == oracle.bound
        assert set(result.cell) == set(enumerate_words(oracle.cell_dfa, oracle.cell_dfa.n_states))


class TestDihedral:
    def test_zero_sum_case(self):
        result = dihedral_bound(3, -1, 1)
        assert result.bound == 1
        assert result.cell_texts() == ("t", "tst", "tstst")

    def test_strictly_negative_sum(self):
        result = dihedral_bound(2, -2, 1)
        assert result.bound == 1
        assert result.cell_texts() == ("t",)

    def test_positive_sum(self):
        result = dihedral_bound(4, -1, 2)
        assert result.bound == 5
        assert result.cell_texts() == ("tststst",)
        best, argmax = brute_force(dihedral_system(8), (-1, 2))
        assert best == 5 and {(1, 0, 1, 0, 1, 0, 1)} == argmax

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            dihedral_bound(1, 1, 1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_exhaustive_against_group(self, m):
        sys = dihedral_system(2 * m)
        rng = random.Random(100 + m)
        for _ in range(60):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            result = dihedral_bound(m, a, b)
            best, argmax = brute_force(sys, (a, b))
            assert result.bound == best, (m, a, b)
            assert set(result.cell) == argmax, (m, a, b)


class TestBSeries:
    def test_rank2_point(self):
        result = bn_bound(2, 1, -1)
        assert result.bound == 1
        best, argmax = brute_force(dihedral_system(4), (1, -1))
        assert best == 1
        assert {tuple(w) for w in result.cell} == argmax

    def test_rank3_point(self):
        result = bn_bound(3, -1, 1)
        best, argmax = brute_force(b_series_system(3), (-1, -1, 1))
        assert result.bound == best
        assert set(result.cell) == argmax

    def test_zero_parameter_defers_cell(self):
        result = bn_bound(3, 0, 0)
        assert result.bound == 0
        assert result.cell is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_group(self, n):
        sys = b_series_system(n)
        rng = random.Random(40 + n)
        for _ in range(40):
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            result = bn_bound(n, a, b)
            best, argmax = brute_force(sys, tuple([a] * (n - 1) + [b]))
            assert result.bound == best, (n, a, b)
            if a != 0 and b != 0:
                assert set(result.cell) == argmax, (n, a, b)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_extremal_words_are_normal_forms(self, n):
        sys = b_series_system(n)
        for w in _bn_extremal_words(n):
            assert lex_word(sys, natural_map(sys, w)) == w, (n, w)

    def test_no_group_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bn_bound runs no group arithmetic")

        monkeypatch.setattr(closedforms, "lex_word", refuse)
        monkeypatch.setattr(closedforms, "right_mul", refuse)
        result = bn_bound(40, 1, -1)
        # the forms peak at i = 38 and 39: n(n - 1) - (n - 1), twice
        assert (result.bound, len(result.cell)) == (40 * 39 - 39, 2)


class TestF4:
    def test_mixed_signs(self):
        result = f4_bound(1, -1)
        assert result.bound == 4

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(30):
            a = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
            b = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
            assert f4_bound(a, b).bound == f4_bound(b, a).bound

    def test_all_ones_gives_longest_element(self):
        result = f4_bound(1, 1)
        assert result.bound == 24
        assert len(result.cell) == 1
        assert len(result.cell[0]) == 24

    def test_candidate_set_has_24_elements(self):
        sys = f4_system()
        elements = {natural_map(sys, w) for w in f4_candidates()}
        assert len(elements) == 24

    def test_normal_forms_are_the_candidates_shortlex_forms(self):
        # the oracle for the literal table: each candidate word's element,
        # written in shortlex normal form
        sys = f4_system()
        assert closedforms._F4_NORMAL_FORMS == tuple(
            lex_word(sys, natural_map(sys, w)) for w in f4_candidates()
        )

    def test_a_zero_parameter_needs_no_roots(self):
        # the cell, and with it F4's 24 minimal roots, is left to the
        # generic machinery (test_limits pins the cap when both are nonzero)
        for a, b in ((0, -1), (1, 0), (0, 0)):
            assert f4_bound(a, b, Caps(roots=1)) == f4_bound(a, b)

    def test_consistency_with_nonneg_formula(self):
        rng = random.Random(8)
        for _ in range(20):
            a = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            b = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            assert f4_bound(a, b).bound == 12 * a + 12 * b


class TestAffineCones:
    def test_ct2(self):
        spec = affine_cone("Ct", 1, 1, 1, n=2)
        assert set(spec.normals) == {(1, 2, 1), (1, 1, 1)}
        assert spec.rho is not None

    def test_ct1_degenerates(self):
        spec = affine_cone("Ct", 2, 0, -3, n=1)
        assert spec.normals == ((1, 0, 1),)

    def test_bt3(self):
        spec = affine_cone("Bt", 1, 1, n=3)
        assert set(spec.normals) == {(4, 1), (2, 1)}
        assert set(spec.all_normals) == {(4, 1), (3, 1), (2, 1)}

    def test_ft4_redundant_middle(self):
        spec = affine_cone("Ft4", 1, 1)
        assert set(spec.normals) == {(5, 3), (6, 5)}
        full = HRep(2, spec.all_normals)
        irred = remove_redundant(full)
        assert set(irred.normals) == {(5, 3), (6, 5)}

    def test_gt2(self):
        spec = affine_cone("Gt2", 1, 1)
        assert set(spec.normals) == {(2, 1), (3, 2)}

    def test_bt_all_normals_implied_by_pair(self):
        for n in (3, 4, 5):
            spec = affine_cone("Bt", 1, 1, n=n)
            assert implies(HRep(2, spec.normals), HRep(2, spec.all_normals))
            assert same_cone(HRep(2, spec.normals), HRep(2, spec.all_normals))

    def test_rho_pairings_nonpositive_inside_cone(self):
        # the cone inequalities imply every coweight pairing is <= 0
        for n in (2, 3, 4):
            spec = affine_cone("Ct", 1, 1, 1, n=n)
            pair = HRep(3, spec.normals)
            assert implies(pair, HRep(3, spec.all_normals))

    def test_validation(self):
        with pytest.raises(InputError):
            affine_cone("Bt", 1, 1, n=2)
        with pytest.raises(InputError):
            affine_cone("Ct", 1, 1, n=2)  # missing c
        with pytest.raises(InputError):
            affine_cone("Ft4", 1, 1, c=0)
        with pytest.raises(InputError):
            affine_cone("Xx", 1, 1)
