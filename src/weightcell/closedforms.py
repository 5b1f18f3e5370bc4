"""Closed-form bounds and cells for the finite families admitting
non-constant weight functions, and the boundedness cones of the affine
families, used both as user-facing formulas and as cross-validation targets
for the generic machinery.

Conventions: even dihedral groups of order 4m; the B-series with the bond 4
at the top end of the chain; F4 with the bond 4 in the middle and the
diagram flip swapping 1<->4 and 2<->3.  Affine cones are hardcoded per
family from the weighted half-sum of positive (co)root data; the generic
automaton pipeline certifies them in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .automata import Word
from .coxeter import (
    CoxeterSystem,
    _group_weight,
    is_positive_definite,
    lex_word,
    longest_element,
    parabolic_elements,
    right_mul,
)
from .errors import InputError, Record, ResourceLimitError
from .limits import Caps
from .weights import WeightVector, weight_of_word

__all__ = [
    "AffineConeSpec",
    "SphericalFormulaResult",
    "affine_cone",
    "bn_bound",
    "dihedral_bound",
    "f4_bound",
    "spherical_nonneg",
]


class SphericalFormulaResult(Record):
    """Bound plus the bound-attaining cell as shortlex normal forms.

    `cell` is None when the formula leaves the cell to the generic
    machinery (a zero parameter outside the guaranteed case split)."""

    alphabet: tuple[str, ...]
    bound: Fraction
    cell: tuple[Word, ...] | None

    def __init__(self, alphabet, bound, cell):
        self._init(alphabet=alphabet, bound=bound, cell=cell)

    def cell_texts(self) -> tuple[str, ...] | None:
        if self.cell is None:
            return None
        single = all(len(n) == 1 for n in self.alphabet)
        joiner = "" if single else " "
        return tuple(
            joiner.join(self.alphabet[i] for i in w) for w in self.cell
        )


def _sorted_words(words) -> tuple[Word, ...]:
    return tuple(sorted(set(words), key=lambda w: (len(w), w)))


def _reaching(alphabet, values, forms, normal_forms) -> SphericalFormulaResult:
    """The bound is the largest of the forms.  With every weight in `values`
    nonzero the cell is the candidate normal forms (`normal_forms()`) that
    reach it; otherwise the cell is left to the generic machinery."""
    value = max(forms)
    if 0 in values:
        return SphericalFormulaResult(alphabet, value, None)
    phi = WeightVector(alphabet, values)
    cell = [w for w in normal_forms() if weight_of_word(phi, w) == value]
    return SphericalFormulaResult(alphabet, value, _sorted_words(cell))


# ---------------------------------------------------------------------------
# General non-negative case (finite systems)
# ---------------------------------------------------------------------------


def spherical_nonneg(
    sys: CoxeterSystem, assignment, caps: Caps = Caps()
) -> SphericalFormulaResult:
    """All-non-negative weights on a finite system: the bound is the weight
    of the longest element and the cell is its coset by the zero-weight
    parabolic subgroup."""
    phi = _group_weight(sys, assignment)
    if not is_positive_definite(sys, None, caps):
        raise InputError("the Coxeter system is infinite")
    if any(v < 0 for v in phi.values):
        raise InputError("a negative weight is present; use the generic machinery")
    w0 = longest_element(sys, caps)
    w0_word = lex_word(sys, w0)
    zero_letters = tuple(i for i, v in enumerate(phi.values) if v == 0)
    parabolic = parabolic_elements(sys, zero_letters, caps).values() if zero_letters else [()]
    coset = [right_mul_word(sys, w0, y) for y in parabolic]
    cell = _sorted_words(lex_word(sys, g) for g in coset)
    return SphericalFormulaResult(sys.generators, weight_of_word(phi, w0_word), cell)


def right_mul_word(sys, g, word):
    for s in word:
        g = right_mul(g, s)
    return g


# ---------------------------------------------------------------------------
# Even dihedral groups (order 4m)
# ---------------------------------------------------------------------------


def _alternating(first: int, length_: int) -> Word:
    return tuple((first + k) % 2 for k in range(length_))


def dihedral_bound(m: int, a, b) -> SphericalFormulaResult:
    """Bound and cell for the dihedral group of order 4m with weights
    (a on s, b on t); covers the full sign case analysis."""
    if m < 2:
        raise InputError("the even dihedral family needs m >= 2")
    a, b = Fraction(a), Fraction(b)
    alphabet = ("s", "t")
    s, t = 0, 1
    w0 = _alternating(s, 2 * m)  # shortlex normal form of the longest element

    if a >= 0 and b >= 0:
        bound = m * (a + b)
        if a > 0 and b > 0:
            cell = [w0]
        elif a == 0 and b > 0:
            cell = [w0, _alternating(t, 2 * m - 1)]  # w0 and w0*s
        elif b == 0 and a > 0:
            cell = [w0, _alternating(s, 2 * m - 1)]  # w0 and w0*t
        else:  # a == b == 0: the whole group
            cell = [()]
            for k in range(1, 2 * m):
                cell.append(_alternating(s, k))
                cell.append(_alternating(t, k))
            cell.append(w0)
        return SphericalFormulaResult(alphabet, bound, _sorted_words(cell))

    if a <= 0 and b <= 0:
        if a == 0:
            cell = [(), (s,)]
        elif b == 0:
            cell = [(), (t,)]
        else:
            cell = [()]
        return SphericalFormulaResult(alphabet, Fraction(0), _sorted_words(cell))

    # a < 0 < b, or its mirror image b < 0 < a with s and t swapped:
    # p is the generator of positive weight
    p, pos, neg = (t, b, a) if a < 0 else (s, a, b)
    if pos + neg < 0:
        return SphericalFormulaResult(alphabet, pos, ((p,),))
    if pos + neg == 0:
        cell = [_alternating(p, 2 * k + 1) for k in range(m)]
        return SphericalFormulaResult(alphabet, pos, _sorted_words(cell))
    return SphericalFormulaResult(
        alphabet, (m - 1) * neg + m * pos, (_alternating(p, 2 * m - 1),)
    )


# ---------------------------------------------------------------------------
# The B-series
# ---------------------------------------------------------------------------


def _bn_extremal_words(n: int) -> list[Word]:
    """The minimal- and maximal-length double-coset representatives with
    respect to the parabolic W_J on the first n-1 generators (0-based
    letters).  They are shortlex normal forms: each is u.c, u empty or the
    normal form 0|10|210|... of W_J's longest element and c, runs down from
    the bond-4 letter n-1, the shortest element of W_J c.  So each suffix
    starts with the smallest left descent of its element: in u, as c adds
    no left descent in J; in c, whose suffixes have no left descent but
    their first letter and n-1, the largest letter."""
    words: list[Word] = []
    for i in range(n + 1):
        x: list[int] = []
        for j in range(1, i + 1):
            x.extend(range(n - 1, n - i + j - 2, -1))
        words.append(tuple(x))
    head: list[int] = []
    for k in range(1, n):
        head.extend(range(k - 1, -1, -1))
    for i in range(n + 1):
        y = list(head)
        for j in range(1, i + 1):
            y.extend(range(n - 1, j - 2, -1))
        words.append(tuple(y))
    return words


def bn_bound(n: int, a, b) -> SphericalFormulaResult:
    """Bound (always) and cell (for a, b nonzero) in the B-series, with
    weight a on the chain generators and b on the bond-4 generator."""
    if n < 2:
        raise InputError("the B-series needs rank >= 2")
    a, b = Fraction(a), Fraction(b)
    forms = []
    for i in range(n + 1):
        forms.append(Fraction(i * (i - 1), 2) * a + i * b)
        forms.append((n * (n - 1) - Fraction((n - i) * (n - i - 1), 2)) * a + i * b)
    names = tuple(f"s{i}" for i in range(1, n + 1))
    return _reaching(names, (a,) * (n - 1) + (b,), forms, lambda: _bn_extremal_words(n))


# ---------------------------------------------------------------------------
# F4
# ---------------------------------------------------------------------------


# Shortlex normal forms, letters 0-based, of F4's 24 candidate elements: 11
# core words, their images under the diagram flip, the identity and the
# longest element.  They do not depend on the weights; the tests recompute
# them from the candidate words with `natural_map` and `lex_word`.
_F4_NORMAL_FORMS = tuple(tuple(map(int, w)) for w in (
    "010", "010210", "01021021", "0102103210", "010210321021", "010212321021",
    "010210213210", "01021021321021", "0102103210213210", "010210213210213210",
    "010210213210212321021",
    "232", "232123", "21232123", "2321021232", "232102123212", "210321021232",
    "212321021232", "21232102123212", "2321021232102123", "212321021232102123",
    "210212321021232102123",
    "", "010210212321021232102123",
))
_F4_MINIMAL_ROOTS = 24  # all of F4's positive roots


def f4_bound(a, b, caps: Caps = Caps()) -> SphericalFormulaResult:
    """Bound (always) and cell (for a, b nonzero) in F4, with weight a on
    the two long-node generators s1, s2 and b on s3, s4."""
    a, b = Fraction(a), Fraction(b)
    # the cell's normal forms rest on F4's minimal roots, whose build stops
    # under a smaller roots cap
    if a and b and caps.roots < _F4_MINIMAL_ROOTS:
        raise ResourceLimitError("minimal roots", caps.roots)
    forms = (
        Fraction(0),
        3 * a,
        3 * b,
        5 * a + b,
        a + 5 * b,
        11 * a + 7 * b,
        7 * a + 11 * b,
        12 * a + 9 * b,
        9 * a + 12 * b,
        12 * a + 12 * b,
    )
    return _reaching(("s1", "s2", "s3", "s4"), (a, a, b, b), forms, lambda: _F4_NORMAL_FORMS)


# ---------------------------------------------------------------------------
# Affine cones
# ---------------------------------------------------------------------------


class AffineConeSpec(Record):
    """Boundedness cone of an affine family in its weight parameters.

    `normals` is the irredundant pair; `all_normals` the full list coming
    from the fundamental-coweight pairings; `rho` the coordinates of twice
    the weighted half-sum of positive roots, in the basis named by
    `rho_basis` (None for the family derived from the triangle-group
    analysis, which never needs it)."""

    family: str
    rank: int | None
    params: tuple[Fraction, ...]
    normals: tuple[tuple[int, ...], ...]
    all_normals: tuple[tuple[int, ...], ...]
    rho: tuple[Fraction, ...] | None
    rho_basis: str | None

    def __init__(self, family, rank, params, normals, all_normals, rho, rho_basis):
        self._init(
            family=family, rank=rank, params=params, normals=normals, all_normals=all_normals, rho=rho,
            rho_basis=rho_basis,
        )


def affine_cone(family: str, a, b, c=None, n: int | None = None) -> AffineConeSpec:
    """Hardcoded boundedness cones for the affine families with non-constant
    weight functions.

    Parameter conventions: Bt(n>=3) has weight a on s0..s(n-1) and b on sn;
    Ct(n>=1) has a on s0, b on the middle generators, c on sn; Ft4 has a on
    s0,s1,s2 and b on s3,s4; Gt2 has a on the two odd-bonded generators and
    b on the third.
    """
    a = Fraction(a)
    b = Fraction(b)
    key = family.strip().lower()
    if key == "bt":
        if n is None or n < 3:
            raise InputError("the Bt family needs a rank n >= 3")
        if c is not None:
            raise InputError("the Bt family takes two parameters")
        all_normals = tuple((2 * n - j - 1, 1) for j in range(1, n + 1))
        normals = ((2 * (n - 1), 1), (n - 1, 1))
        rho = tuple(2 * (n - i) * a + b for i in range(1, n + 1))
        return AffineConeSpec("Bt", n, (a, b), normals, all_normals, rho, "euclidean")
    if key == "ct":
        if n is None or n < 1:
            raise InputError("the Ct family needs a rank n >= 1")
        if c is None:
            raise InputError("the Ct family takes three parameters (a, b, c)")
        c = Fraction(c)
        all_normals = tuple(
            dict.fromkeys((1, 2 * n - i - 1, 1) for i in range(1, n + 1))
        )
        normals = tuple(dict.fromkeys([(1, 2 * (n - 1), 1), (1, n - 1, 1)]))
        rho = tuple(a + c + 2 * (n - i) * b for i in range(1, n + 1))
        return AffineConeSpec("Ct", n, (a, b, c), normals, all_normals, rho, "euclidean")
    if key == "ft4":
        if c is not None or n is not None:
            raise InputError("the Ft4 family takes two parameters and no rank")
        all_normals = ((5, 3), (3, 2), (4, 3), (6, 5))
        normals = ((5, 3), (6, 5))
        rho = (10 * a + 6 * b, 18 * a + 12 * b, 24 * a + 18 * b, 12 * a + 10 * b)
        return AffineConeSpec("Ft4", None, (a, b), normals, all_normals, rho, "simple-roots")
    if key == "gt2":
        if c is not None or n is not None:
            raise InputError("the Gt2 family takes two parameters and no rank")
        m = 3
        all_normals = tuple((i + 1, i) for i in range(1, m))
        normals = ((2, 1), (m, m - 1))
        return AffineConeSpec("Gt2", None, (a, b), normals, all_normals, None, None)
    raise InputError(f"unknown affine family {family!r} (expected Bt, Ct, Ft4, Gt2)")
