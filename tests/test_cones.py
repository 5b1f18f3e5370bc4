"""Cone-geometry tests: H-reps from circuits, redundancy removal and
containment read off the double description, extreme rays, and the dual
round trip."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weightcell.cones import (
    HRep,
    cone_from_circuits,
    contains,
    describe,
    extreme_rays,
    facets,
    implies,
    project_parameters,
    remove_redundant,
    same_cone,
)
from weightcell.errors import InputError
from weightcell.weights import WeightVector, is_bounded, simple_cycles


def normals_set(h):
    return set(h.normals)


class TestConeFromCircuits:
    def test_triangle_333(self, fig_333):
        h = cone_from_circuits(simple_cycles(fig_333), fig_333.alphabet)
        assert normals_set(h) == {(1, 1, 1), (2, 1, 1)}

    def test_dihedral(self, ex_dihedral):
        h = cone_from_circuits(simple_cycles(ex_dihedral), ex_dihedral.alphabet)
        assert normals_set(h) == {(1, 1)}

    def test_246_includes_redundant_vector(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        assert len(h.normals) == 5
        assert (2, 3, 3) in normals_set(h)


class TestRemoveRedundant:
    def test_246(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        irred = remove_redundant(h)
        assert normals_set(irred) == {(1, 1, 1), (1, 2, 1), (1, 3, 2), (1, 2, 2)}
        assert (2, 3, 3) not in normals_set(irred)

    def test_interval_family(self):
        # normals (i+1, i) for 1 <= i <= m-1: only the ends survive
        for m in (3, 4, 5, 7):
            h = HRep(2, tuple((i + 1, i) for i in range(1, m)))
            irred = remove_redundant(h)
            assert normals_set(irred) == {(2, 1), (m, m - 1)}

    def test_duplicates_collapse_in_constructor(self):
        h = HRep(2, ((1, 1), (2, 2), (1, 1)))
        assert h.normals == ((1, 1),)
        assert remove_redundant(h).normals == ((1, 1),)

    def test_idempotent_and_order_independent(self):
        rng = random.Random(3)
        for _ in range(25):
            dim = rng.randint(2, 4)
            normals = []
            while len(normals) < rng.randint(1, 6):
                v = tuple(rng.randint(-3, 3) for _ in range(dim))
                if any(v):
                    normals.append(v)
            h = HRep(dim, tuple(normals))
            r1 = remove_redundant(h)
            assert remove_redundant(r1) == r1
            shuffled = list(h.normals)
            rng.shuffle(shuffled)
            r2 = remove_redundant(HRep(dim, tuple(shuffled)))
            assert normals_set(r1) == normals_set(r2)
            assert same_cone(r1, h)


class TestExtremeRays:
    def test_single_inequality_1d(self):
        v = extreme_rays(HRep(1, ((1,),)))
        assert v.rays == ((-1,),)
        assert v.lineality == ()

    def test_246(self, fig_246):
        h = remove_redundant(
            cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        )
        v = extreme_rays(h)
        assert v.lineality == ()
        assert set(v.rays) == {(1, 0, -1), (0, -1, 1), (-1, 1, -1), (-2, 0, 1)}

    def test_333_lineality_and_span(self, fig_333):
        h = cone_from_circuits(simple_cycles(fig_333), fig_333.alphabet)
        v = extreme_rays(h)
        assert len(v.lineality) == 1
        line = v.lineality[0]
        assert line in ((0, 1, -1), (0, -1, 1))
        # the published generator set spans the same cone
        published = ((0, 1, -1), (0, -1, 1), (-1, 0, 1), (1, 0, -2))
        f = facets(v)
        for g in published:
            assert contains(f, g)
        # and conversely every computed generator lies in the published cone
        from weightcell.cones import VRep

        published_v = VRep(3, (), published)
        pf = facets(published_v)
        for r in v.rays:
            assert contains(pf, r)
        for l in v.lineality:
            assert contains(pf, l) and contains(pf, tuple(-x for x in l))

    def test_rays_satisfy_all_inequalities(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        v = extreme_rays(h)
        for r in v.rays:
            assert contains(h, r)
        for l in v.lineality:
            assert contains(h, l) and contains(h, tuple(-x for x in l))


class TestMembership:
    def test_246_intro_point(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        assert contains(h, (1, 2, -5))
        # the point sits on the facet a+2b+c = 0, so it is not interior
        assert (1, 2, 1) in h.normals and _dot((1, 2, 1), (1, 2, -5)) == 0
        assert all(_dot(n, (-1, -1, -1)) < 0 for n in h.normals)

    def test_zero_vector(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        assert contains(h, (0, 0, 0))

    def test_outside(self, fig_333):
        h = cone_from_circuits(simple_cycles(fig_333), fig_333.alphabet)
        assert not contains(h, (1, 1, 1))

    def test_accepts_weight_vectors(self, fig_246):
        h = cone_from_circuits(simple_cycles(fig_246), fig_246.alphabet)
        phi = WeightVector(fig_246.alphabet, (1, 2, -5))
        assert contains(h, phi)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            contains(HRep(2, ((1, 1),)), (1, 2, 3))

    def test_membership_coherence_with_boundedness(self, fig_246, fig_333, ex_dihedral):
        rng = random.Random(77)
        for a in (fig_246, fig_333, ex_dihedral):
            h = cone_from_circuits(simple_cycles(a), a.alphabet)
            for _ in range(500):
                phi = WeightVector(
                    a.alphabet,
                    tuple(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in a.alphabet
                    ),
                )
                assert contains(h, phi) == is_bounded(a, phi).bounded


class TestRoundTrip:
    def test_rays_to_facets_to_rays_fixpoint(self):
        rng = random.Random(2024)
        done = 0
        while done < 60:
            dim = rng.randint(1, 5)
            count = rng.randint(1, 8)
            normals = []
            for _ in range(count):
                v = tuple(rng.randint(-4, 4) for _ in range(dim))
                if any(v):
                    normals.append(v)
            if not normals:
                continue
            h = HRep(dim, tuple(normals))
            v1 = extreme_rays(h)
            h2 = facets(v1)
            for r in v1.rays:
                assert contains(h2, r)
            v2 = extreme_rays(h2)
            assert set(v2.rays) == set(v1.rays)
            assert set(v2.lineality) == set(v1.lineality)
            # facets recovered are implied by (and imply) the original cone
            if h2.normals:
                assert same_cone(h, h2)
            else:
                assert not h.normals or same_cone(h, HRep(dim, tuple(h.normals)))
            done += 1


class TestProjectParameters:
    def test_sum_within_groups(self):
        h = HRep(3, ((1, 1, 1), (1, 2, 1), (2, 3, 3)))
        p = project_parameters(h, [[0, 1], [2]])
        assert normals_set(p) == {(2, 1), (3, 1), (5, 3)}

    def test_groups_must_partition(self):
        with pytest.raises(InputError):
            project_parameters(HRep(2, ((1, 1),)), [[0]])

    def test_zero_fold_dropped(self):
        h = HRep(2, ((1, -1),))
        p = project_parameters(h, [[0, 1]])
        assert p.normals == ()


# ---------------------------------------------------------------------------
# Differential oracle: the double-description engine against brute force
# ---------------------------------------------------------------------------

BOX = 8
"""Half-width of the integer box the reference searches.

Let C = {x : Ax <= 0} with A's entries in [-2, 2] and dim d <= 3, and let
<n, x> > 0 for some x in C.  The polytope C intersected with the cube
[-1, 1]^d then attains max <n, x> > 0 at a vertex v: the unique solution of
d independent tight constraints, rows of A (right-hand side 0) and cube rows
x_j = +-1.  By Cramer's rule |det M| v has integer entries det(M_i), where
M_i is M with column i replaced by the right-hand side b.  v != 0, so some
row is a cube row; every row of A has a 0 in column i of M_i, so expanding
along that column bounds |det(M_i)| by a (d-1)-minor of at most d-1 rows of
A (<= 2*2 + 2*2 = 8 for d = 3, <= 2 for d = 2) or by a sum of at most two
entries of one row of A (<= 4), and by 1 for d = 1.  So |det M| v is an
integer point of C in [-8, 8]^d with <n, x> > 0: an implication fails iff
the box holds a witness."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _box(dim):
    return list(itertools.product(range(-BOX, BOX + 1), repeat=dim))


def _reference_implied(points, others, normal) -> bool:
    """<normal, x> <= 0 on {x : <o, x> <= 0 for o in others}, by search."""
    return not any(
        _dot(normal, x) > 0 and all(_dot(o, x) <= 0 for o in others) for x in points
    )


def _reference_remove_redundant(h: HRep) -> tuple:
    points = _box(h.dim)
    kept = list(h.normals)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if rest and _reference_implied(points, rest, kept[i]):
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


def _vectors(dim, low=-2):
    vec = st.tuples(*[st.integers(low, 2)] * dim)
    return vec.filter(any)


@st.composite
def small_cones(draw):
    """(kind, HRep): "nonneg" normals keep the cone full-dimensional (it
    contains (-1, ..., -1) in its interior), "flat" adds the negation of the
    first normal so the cone lies in a hyperplane, "mixed" is unconstrained."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["nonneg", "mixed", "flat"]))
    normals = draw(st.lists(_vectors(dim, 0 if kind == "nonneg" else -2), min_size=1, max_size=6))
    if kind == "flat":
        normals.append(tuple(-x for x in normals[0]))
    return kind, HRep(dim, tuple(normals))


class TestDoubleDescriptionOracle:
    @given(small_cones())
    @settings(max_examples=150, deadline=None)
    def test_remove_redundant_matches_brute_force(self, case):
        kind, h = case
        v = extreme_rays(h)
        if kind == "nonneg":  # (-1, ..., -1) is interior
            assert all(_dot(n, (-1,) * h.dim) < 0 for n in h.normals)
        if kind == "flat":  # every generator lies in the hyperplane
            assert not any(_dot(h.normals[0], g) for g in v.rays + v.lineality)
        assert remove_redundant(h).normals == _reference_remove_redundant(h)

    @given(small_cones(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_implies_matches_brute_force(self, case, data):
        _, h1 = case
        # mostly h1's own normals (often implied), sometimes a new one
        picks = data.draw(st.lists(st.sampled_from(h1.normals), max_size=3))
        extra = data.draw(st.lists(_vectors(h1.dim), max_size=1))
        h2 = HRep(h1.dim, tuple(picks + extra))
        points = _box(h1.dim)
        expected = all(_reference_implied(points, h1.normals, n) for n in h2.normals)
        assert implies(h1, h2) == expected

    def test_half_line_keeps_all_three(self):
        # x = y and x + y <= 0: no normal is implied by the other two
        flat = HRep(2, ((1, -1), (-1, 1), (1, 1)))
        v = extreme_rays(flat)
        assert v.lineality == () and v.rays == ((-1, -1),)
        assert remove_redundant(flat).normals == flat.normals
        assert _reference_remove_redundant(flat) == flat.normals


@st.composite
def cones_in_subspaces(draw):
    """Integer normal lists in dimensions 2 to 5.  The normals are integer
    combinations of k drawn vectors; for k < dim they lie in a proper
    subspace, so the cone has lineality as well as rays."""
    dim = draw(st.integers(2, 5))
    k = draw(st.integers(1, dim))
    basis = draw(st.lists(_vectors(dim), min_size=k, max_size=k))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=7))
    normals = [
        tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(dim))
        for cs in coefficients
    ]
    normals = [n for n in normals if any(n)]
    assume(normals)
    return HRep(dim, tuple(normals))


class TestOneDoubleDescription:
    """The VRep depends on the cone, not on the list of normals that cuts
    it out, so `describe` serves the irredundant list and the VRep from one
    double description of the raw list."""

    @given(cones_in_subspaces())
    @settings(max_examples=300, deadline=None)
    def test_rays_of_the_irredundant_list(self, h):
        irred, v = remove_redundant(h), extreme_rays(h)
        assert extreme_rays(irred) == v
        assert describe(h) == (irred, v)

    def test_lineality_off_the_axes(self):
        # x1 <= x2 <= x3 with the implied x1 <= x3 listed too: lineality
        # (1, 1, 1), and ray representatives that are not axis-aligned
        raw = HRep(3, ((1, 0, -1), (1, -1, 0), (0, 1, -1)))
        irred, v = describe(raw)
        assert irred.normals == ((1, -1, 0), (0, 1, -1))
        assert v.lineality == ((1, 1, 1),) and len(v.rays) == 2
        for order in itertools.permutations(raw.normals):
            assert extreme_rays(HRep(3, order)) == v
            assert extreme_rays(remove_redundant(HRep(3, order))) == v
