"""Tests for the exact cyclotomic field arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from weightcell import cyclo
from weightcell.cyclo import (
    CycloReal,
    _generator_enclosure,
    embed_2cos,
    int_sign,
    minimal_polynomial_of_2cos,
    primitive_vector,
    sign,
)
from weightcell.errors import InputError, ResourceLimitError


def eval_poly(poly, x):
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def has_rational_root(poly):
    # monic integer polynomial: any rational root is an integer dividing poly[0]
    c0 = poly[0]
    if c0 == 0:
        return True
    candidates = set()
    for d in range(1, abs(c0) + 1):
        if c0 % d == 0:
            candidates.update({d, -d})
    return any(eval_exact(poly, r) == 0 for r in candidates)


def eval_exact(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


class TestMinimalPolynomial:
    def test_m1_is_x_plus_2(self):
        assert minimal_polynomial_of_2cos(1) == (2, 1)

    def test_m2_is_x(self):
        assert minimal_polynomial_of_2cos(2) == (0, 1)

    def test_m6_is_x_squared_minus_3(self):
        poly = minimal_polynomial_of_2cos(6)
        assert poly == (-3, 0, 1)
        # independent check: numeric root, degree, and no rational root
        root = 2 * math.cos(math.pi / 6)
        assert abs(eval_poly(poly, root)) < 1e-12
        assert len(poly) - 1 == euler_phi(12) // 2
        assert not has_rational_root(poly)

    @pytest.mark.parametrize("M", range(2, 31))
    def test_degree_and_numeric_root(self, M):
        poly = minimal_polynomial_of_2cos(M)
        assert poly[-1] == 1
        assert len(poly) - 1 == euler_phi(2 * M) // 2
        root = 2 * math.cos(math.pi / M)
        assert abs(eval_poly(poly, root)) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            minimal_polynomial_of_2cos(0)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_polynomials_factor_x_n_minus_1():
    # x^n - 1 is the product of the d-th cyclotomic polynomials over d | n
    phi = {n: cyclo._cyclotomic(n) for n in range(1, 301)}
    for n in range(1, 301):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, phi[d])
        assert product == [-1] + [0] * (n - 1) + [1], n
        assert len(phi[n]) - 1 == euler_phi(n), n


class TestEmbed:
    def test_identity_embedding(self):
        x = embed_2cos(12, 12)
        assert x == CycloReal.generator(12)
        coeffs = x.coeffs
        assert coeffs[1] == 1 and not any(c for i, c in enumerate(coeffs) if i != 1)

    def test_right_angle_is_zero(self):
        for M in (2, 4, 6, 12):
            assert embed_2cos(2, M).is_zero()

    def test_pi_over_3_is_one(self):
        v = embed_2cos(3, 6)
        assert v == CycloReal.from_rational(6, 1)
        assert (v * v).as_fraction() == 1

    def test_numeric_agreement(self):
        for m, M in [(3, 12), (4, 12), (6, 12), (5, 10), (7, 14), (4, 8)]:
            v = embed_2cos(m, M)
            target = 2 * math.cos(math.pi / m)
            approx = sum(
                float(c) * (2 * math.cos(math.pi / M)) ** i for i, c in enumerate(v.coeffs)
            )
            assert abs(approx - target) < 1e-9

    def test_rejects_non_divisor(self):
        with pytest.raises(InputError):
            embed_2cos(5, 12)
        with pytest.raises(InputError):
            embed_2cos(1, 12)


class TestSign:
    def test_zero(self):
        assert sign(CycloReal.zero(12)) == 0

    def test_exact_cancellation(self):
        # 2cos(pi/3) - 1 == 0 exactly
        assert sign(embed_2cos(3, 6) - 1) == 0

    def test_sqrt3_minus_one_positive(self):
        assert sign(embed_2cos(6, 6) - 1) == 1

    def test_negative(self):
        assert sign(1 - embed_2cos(6, 6)) == -1
        assert sign(CycloReal.from_rational(12, Fraction(-1, 7))) == -1

    @pytest.mark.parametrize("m,M", [(3, 12), (4, 12), (6, 12), (5, 10), (12, 12)])
    def test_straddles_float_approximants(self, m, M):
        value = 2 * math.cos(math.pi / m)
        below = Fraction(value).limit_denominator(10**12) - Fraction(1, 10**9)
        above = Fraction(value).limit_denominator(10**12) + Fraction(1, 10**9)
        v = embed_2cos(m, M)
        assert sign(v - below) == 1
        assert sign(v - above) == -1


rational = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def cyclo_elements(draw, M=12):
    deg = len(minimal_polynomial_of_2cos(M)) - 1
    coeffs = tuple(draw(rational) for _ in range(deg))
    return CycloReal(M, coeffs)


class TestRingAxioms:
    @given(cyclo_elements(), cyclo_elements(), cyclo_elements())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(cyclo_elements(), cyclo_elements())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    def test_negative_power_raises(self):
        # no division: a negative exponent raises instead of looping
        with pytest.raises(InputError):
            embed_2cos(12, 12) ** -1


def test_scalar_mixing():
    x = embed_2cos(4, 12)  # sqrt(2)
    assert x * 2 == 2 * x
    assert (x + 1) - 1 == x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x**2).as_fraction() == 2


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_vector([4, 6, -2]) == (2, 3, -1)
    assert primitive_vector([0, 0]) == (0, 0)


# -- the integer sign against an exact rational interval reference -----------

SIGN_MODULI = (5, 7, 12, 20, 154)


def reference_sign(M, coeffs):
    """Sign of sum(c_i x^i), x = 2cos(pi/M), by exact bisection.

    x lies in the rational interval [lo, hi] / 2^k, certified by a sign
    change of the minimal polynomial; the interval is halved until interval
    evaluation of the sum excludes zero.  Values are kept as integer
    numerators over a power of two, so every comparison is exact.
    """
    if not any(coeffs):
        return 0
    poly = minimal_polynomial_of_2cos(M)
    deg = len(coeffs) - 1

    def poly_sign(t, k):  # sign of poly(t / 2^k), by Horner on 2^(k*deg) * poly
        value = 0
        for i, a in enumerate(reversed(poly)):
            value = value * t + (a << (k * i))
        return (value > 0) - (value < 0)

    k = 40
    lo = int((2 * math.cos(math.pi / M) - 1e-9) * 2**k)
    hi = int((2 * math.cos(math.pi / M) + 1e-9) * 2**k)
    sign_lo = poly_sign(lo, k)
    assert lo > 0 and sign_lo * poly_sign(hi, k) < 0
    while True:
        # x > 0, so x^i lies in [lo^i, hi^i] / 2^(k*i)
        low = sum(c * (lo if c > 0 else hi) ** i << (k * (deg - i)) for i, c in enumerate(coeffs))
        high = sum(c * (hi if c > 0 else lo) ** i << (k * (deg - i)) for i, c in enumerate(coeffs))
        if low > 0:
            return 1
        if high < 0:
            return -1
        for _ in range(32):
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            if sign_lo * poly_sign(mid, k) < 0:
                hi = mid
            else:
                lo = mid


def field_degree(M):
    return len(minimal_polynomial_of_2cos(M)) - 1


@st.composite
def random_int_vectors(draw):
    M = draw(st.sampled_from(SIGN_MODULI))
    bound = draw(st.sampled_from((3, 100, 10**12)))
    coeffs = [draw(st.integers(-bound, bound)) for _ in range(field_degree(M))]
    return M, coeffs


@st.composite
def near_cancelling_vectors(draw):
    """2^b x^k - N with N the truncation of 2^b x^k, or one above it: the power
    expansion of x^k minus an approximant of its value, scaled to integers."""
    M = draw(st.sampled_from(SIGN_MODULI))
    k = draw(st.integers(1, 3 * field_degree(M)))
    b = draw(st.integers(8, 400))
    expansion = (CycloReal.generator(M) ** k).coeffs
    with mpmath.workprec(b + 8 * k + 64):
        truncated = int(mpmath.floor((2 * mpmath.cos(mpmath.pi / M)) ** k * 2**b))
    coeffs = [int(c) * 2**b for c in expansion]
    coeffs[0] -= truncated + draw(st.integers(0, 1))
    return M, coeffs


class TestIntSign:
    @given(st.one_of(random_int_vectors(), near_cancelling_vectors()))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case):
        M, coeffs = case
        expected = reference_sign(M, coeffs)
        assert int_sign(M, coeffs) == expected
        scaled = CycloReal(M, tuple(Fraction(c, 6) for c in coeffs))
        assert sign(scaled) == expected

    def test_near_cancelling_needs_more_precision(self):
        # 2^300 x^3 - floor(2^300 x^3) in Q(2cos(pi/154)) is below 1 while its
        # coefficients exceed 2^300, so 64 bits cannot decide it.
        M, b = 154, 300
        with mpmath.workprec(b + 128):
            truncated = int(mpmath.floor((2 * mpmath.cos(mpmath.pi / M)) ** 3 * 2**b))
        coeffs = [0] * field_degree(M)
        coeffs[3] = 2**b
        coeffs[0] = -truncated
        assert int_sign(M, coeffs) == reference_sign(M, coeffs) == 1
        coeffs[0] -= 1
        assert int_sign(M, coeffs) == reference_sign(M, coeffs) == -1


# -- the integer enclosure of 2cos(pi/M); mpmath is a test-only oracle --------


class TestGeneratorEnclosure:
    @given(st.integers(4, 400), st.sampled_from((64, 128, 256, 512, 1024, 2048)))
    @settings(max_examples=25, deadline=None)
    def test_contains_root_narrow_and_certified(self, M, prec):
        lo, hi = _generator_enclosure(M, prec)
        # mpmath at prec + 64 bits is within 2^-(prec+60) of 2cos(pi/M)
        with mpmath.workprec(prec + 64):
            man, exp = (2 * mpmath.cos(mpmath.pi / M)).man_exp
        value, tol = Fraction(man) * Fraction(2) ** exp, Fraction(1, 2 ** (prec + 60))
        assert lo < value - tol and value + tol < hi
        assert hi - lo <= Fraction(2) ** (8 - prec)
        poly = minimal_polynomial_of_2cos(M)
        assert eval_exact(poly, lo) < 0 < eval_exact(poly, hi)

    @pytest.mark.parametrize("M,root", [(1, -2), (2, 0), (3, 1)])
    def test_degree_one_is_the_rational_root(self, M, root):
        assert _generator_enclosure(M, 64) == (root, root)


def test_sign_precision_cap_is_a_resource_limit(monkeypatch):
    # the four-level case of TestIntSign: 512 bits decide it, 256 do not
    M, b = 154, 300
    with mpmath.workprec(b + 128):
        truncated = int(mpmath.floor((2 * mpmath.cos(mpmath.pi / M)) ** 3 * 2**b))
    coeffs = [0] * field_degree(M)
    coeffs[3] = 2**b
    coeffs[0] = -truncated
    monkeypatch.setattr(cyclo, "MAX_SIGN_BITS", 256)
    with pytest.raises(ResourceLimitError) as info:
        int_sign(M, coeffs)
    assert (info.value.what, info.value.cap) == ("sign precision bits", 256)
    monkeypatch.setattr(cyclo, "MAX_SIGN_BITS", 512)
    assert int_sign(M, coeffs) == 1
