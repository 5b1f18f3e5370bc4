"""Exact arithmetic in the real cyclotomic field Q(2cos(pi/M)).

Rationals are stdlib `fractions.Fraction` throughout the package.  This
module adds the single field extension needed for root coordinates of
Coxeter systems with arbitrary finite bond labels: elements are stored as
coefficient vectors in the power basis of x = 2cos(pi/M) modulo its minimal
polynomial, so equality and the zero test are exact, and sign determination
is exact via certified interval refinement around the real embedding: the
enclosure of x comes from integer Newton steps at dyadic points, checked by
an exact sign change of the minimal polynomial, so the module needs nothing
beyond the standard library.

`CycloReal` is the public field type, with rational coefficients and the
ring operations only (no division).  Group matrices and roots of Coxeter
systems lie in the ring Z[2cos(pi/M)] (the minimal polynomial is monic), so
the group layer stores them as plain tuples of ints and uses the integer
kernel here: `int_multiplier` and `int_mul_sub` for products, `int_sign`
for signs.  `CycloReal.sign` clears denominators and calls the same
`int_sign`.

A field is built once per modulus, by `_field_data`: the minimal
polynomial, its degree and the reduction rows; `minimal_polynomial_of_2cos`
reads it.  The only other caches hold the levels of the sign ladder
(`_generator_enclosure`, `_power_bounds`), each of which starts from the
cached level below it.  The group layer keeps its multipliers in its own
per-system cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import InputError, Record, ResourceLimitError

__all__ = [
    "CycloReal",
    "minimal_polynomial_of_2cos",
    "embed_2cos",
    "sign",
]


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense, ascending coefficients)
# ---------------------------------------------------------------------------


def _poly_divexact(p: list[int], q: list[int]) -> list[int]:
    """Exact division of integer polynomials (remainder must vanish)."""
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    out = [0] * (len(p) - dq)
    for k in range(len(p) - 1, dq - 1, -1):
        c = p[k]
        if c % lead != 0:
            raise ArithmeticError("inexact polynomial division")
        f = c // lead
        out[k - dq] = f
        if f:
            for j in range(dq + 1):
                p[k - dq + j] -= f * q[j]
    if any(p):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


def _cyclotomic(n: int) -> list[int]:
    """n-th cyclotomic polynomial: for each divisor d of n in turn, x^d - 1
    divided by the cyclotomic polynomials of d's proper divisors."""
    found: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d == 0:
            f = [-1] + [0] * (d - 1) + [1]
            for e, p in found.items():
                if d % e == 0:
                    f = _poly_divexact(f, p)
            found[d] = f
    return found[n]


def _euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def minimal_polynomial_of_2cos(M: int) -> tuple[int, ...]:
    """Monic minimal polynomial of 2cos(pi/M) over Q, ascending coefficients."""
    return _field_data(M)[0]


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _field_data(M: int):
    """The field Q(2cos(pi/M)), built once per modulus: the minimal
    polynomial of x = 2cos(pi/M), its degree deg, and the integer reduction
    rows of x^k (deg <= k <= 2deg-2); integers because the polynomial is monic.

    For M >= 2 the polynomial has degree phi(2M)/2 and is obtained from the
    cyclotomic polynomial of order 2M: writing Phi_{2M}(z) (palindromic of
    degree 2k) as z^k * P(z + 1/z) yields P via the coefficient recurrence
    for the polynomials C_j with C_j(y + 1/y) = y^j + y^-j.
    """
    if M < 1:
        raise InputError("modulus must be a positive integer")
    if M == 1:
        poly = (2, 1)  # 2cos(pi) = -2
    else:
        phi = _cyclotomic(2 * M)
        if len(phi) % 2 == 0:
            raise ArithmeticError("cyclotomic polynomial of order >= 3 must have even degree")
        k = len(phi) // 2
        # C_0 = 2, C_1 = y, C_{j+1} = y*C_j - C_{j-1}
        out = [0] * (k + 1)
        out[0] = phi[k]
        prev, cur = [2], [0, 1]
        for j in range(1, k + 1):
            c = phi[k + j]
            if c:
                for idx, coeff in enumerate(cur):
                    out[idx] += c * coeff
            if j < k:
                nxt = [0] + cur
                for idx, coeff in enumerate(prev):
                    nxt[idx] -= coeff
                prev, cur = cur, nxt
        if k != _euler_phi(2 * M) // 2 or out[-1] != 1:
            raise ArithmeticError(f"minimal polynomial construction failed for M={M}")
        poly = tuple(out)
    deg = len(poly) - 1
    rows = []
    # x^deg = -(poly[0] + ... + poly[deg-1] x^{deg-1})
    row = [-c for c in poly[:deg]]
    rows.append(tuple(row))
    for _ in range(deg - 2):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [a + top * b for a, b in zip(row, rows[0])]
        rows.append(tuple(row))
    return poly, deg, tuple(rows)


def _reduce(M: int, coeffs: list) -> tuple:
    """Reduce a coefficient list (ints or Fractions, any length >= 1) modulo
    the minimal polynomial; consumes the list."""
    _, deg, rows = _field_data(M)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs.pop()
        if c:
            coeffs[:deg] = [a + c * r for a, r in zip(coeffs, rows[k - deg])]
    return tuple(coeffs) + (Fraction(0),) * (deg - len(coeffs))


# ---------------------------------------------------------------------------
# Integer kernel: elements of Z[2cos(pi/M)] as tuples of ints
# ---------------------------------------------------------------------------


def int_multiplier(M: int, c: tuple[int, ...]):
    """Multiplication by the fixed element c, for `int_mul_sub`: (c0, None)
    when c is the integer c0, else (None, rows) with rows the integer matrix
    of y -> c*y in the power basis."""
    if not any(c[1:]):
        return c[0], None
    columns = [_reduce(M, [0] * j + list(c)) for j in range(len(c))]  # c * x^j
    return None, tuple(zip(*columns))


def int_mul_sub(u, multiplier, y) -> tuple[int, ...]:
    """u - c*y for integer coefficient vectors, c given by `int_multiplier`."""
    c0, rows = multiplier
    if rows is None:
        return tuple([p - c0 * q for p, q in zip(u, y)])
    return tuple([p - sum(map(mul, r, y)) for p, r in zip(u, rows)])


class CycloReal(Record):
    """An element of Q(2cos(pi/M)), as a power-basis coefficient vector.

    Immutable and hashable; arithmetic is exact.  Mixed arithmetic with int
    and Fraction scalars is supported; there is no division.
    """

    modulus: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, modulus, coeffs):
        self._init(modulus=modulus, coeffs=coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(M: int) -> "CycloReal":
        _, deg, _ = _field_data(M)
        return CycloReal(M, (Fraction(0),) * deg)

    @staticmethod
    def from_rational(M: int, value) -> "CycloReal":
        _, deg, _ = _field_data(M)
        head = (Fraction(value),)
        return CycloReal(M, head + (Fraction(0),) * (deg - 1))

    @staticmethod
    def generator(M: int) -> "CycloReal":
        """The element 2cos(pi/M) itself."""
        poly, deg, _ = _field_data(M)
        if deg == 1:
            # field is Q; the generator is the rational root of the minpoly
            return CycloReal(M, (Fraction(-poly[0], poly[1]),))
        vec = [Fraction(0)] * deg
        vec[1] = Fraction(1)
        return CycloReal(M, tuple(vec))

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InputError("element is not rational")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "CycloReal | None":
        if isinstance(other, CycloReal):
            if other.modulus != self.modulus:
                raise InputError("mixed cyclotomic moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloReal.from_rational(self.modulus, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.modulus, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloReal(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.modulus, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycloReal(self.modulus, tuple(a * f for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_rational():
            return o * self.coeffs[0]
        if o.is_rational():
            return self * o.coeffs[0]
        return CycloReal(self.modulus, _reduce(self.modulus, _q_mul(self.coeffs, o.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("CycloReal has no division, so no negative powers")
        result = CycloReal.from_rational(self.modulus, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- sign and ordering ---------------------------------------------------

    def sign(self) -> int:
        return sign(self)

    def __repr__(self):
        return f"CycloReal(M={self.modulus}, {list(self.coeffs)})"


def _q_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def embed_2cos(m: int, M: int) -> CycloReal:
    """2cos(pi/m) as an element of Q(2cos(pi/M)); requires m | M and m >= 2.

    Uses the Chebyshev-style identity 2cos(k*theta) = C_k(2cos theta) with
    k = M/m, where C_k(y + 1/y) = y^k + y^-k.
    """
    if m < 2:
        raise InputError("bond label must be >= 2")
    if M % m != 0:
        raise InputError(f"{m} does not divide the modulus {M}")
    k = M // m
    x = CycloReal.generator(M)
    if k == 1:
        return x
    prev = CycloReal.from_rational(M, 2)
    cur = x
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


# ---------------------------------------------------------------------------
# Exact sign determination
# ---------------------------------------------------------------------------


# `int_sign` gives up, with a ResourceLimitError, past this many bits.
MAX_SIGN_BITS = 1 << 20


def _scaled_value(poly, a: int, k: int) -> int:
    """2^(k*deg) * poly(a / 2^k) for an integer polynomial, exactly (Horner)."""
    acc = 0
    for i, c in enumerate(reversed(poly)):
        acc = acc * a + (c << (k * i))
    return acc


@lru_cache(maxsize=256)
def _generator_enclosure(M: int, prec: int) -> tuple[Fraction, Fraction]:
    """Rational interval around x = 2cos(pi/M), at most 2^(8-prec) wide and
    verified by an exact sign change of the minimal polynomial P.

    In degree 1 the interval is the rational root itself.  Otherwise the
    opening bracket is [2 - (355/(113 M))^2, 2]: its lower end is below x,
    and above the next conjugate 2cos(3 pi/M) for M >= 4, so x is the only
    root of P in it.  Above x the polynomial is positive, increasing and
    convex (P is monic and all its roots are real), so an integer Newton
    step from the upper end, rounded up on the grid 2^-k, stays above x,
    and x >= hi - deg * P(hi)/P'(hi) gives the lower end.  Each level of
    `int_sign`'s doubling ladder starts from the cached level below it,
    whose bracket is already within the quadratic range of Newton's method.
    The interval is returned only after the exact checks P(lo) < 0 < P(hi).
    No float is used.
    """
    poly, deg, _ = _field_data(M)
    if deg == 1:
        root = Fraction(-poly[0])
        return root, root
    # deg guard bits bound the final Laguerre width; 2^-k < 1/M^2 keeps the
    # rounded-down opening end above the next conjugate.
    k = max(prec, 2 * M.bit_length()) + deg.bit_length()
    if prec > 64:
        start = _generator_enclosure(M, prec // 2)
    else:
        # 355/113 > pi, so 2 - (355/(113 M))^2 < 2 - (pi/M)^2 <= 2cos(pi/M)
        start = (2 - Fraction(355, 113 * M) ** 2, Fraction(2))
    lo = (start[0].numerator << k) // start[0].denominator
    hi = -(-(start[1].numerator << k) // start[1].denominator)
    dpoly = [i * c for i, c in enumerate(poly)][1:]
    while hi - lo > 1 << (k - prec + 8):
        p = _scaled_value(poly, hi, k)
        dp = _scaled_value(dpoly, hi, k)
        lo = max(lo, hi + (-deg * p // dp))  # hi - ceil(deg * P/P'), in units of 2^-k
        hi -= p // dp  # the Newton point, rounded up
    if _scaled_value(poly, lo, k) >= 0 or _scaled_value(poly, hi, k) <= 0:
        raise ArithmeticError(f"enclosure of 2cos(pi/{M}) failed certification")
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


@lru_cache(maxsize=256)
def _power_bounds(M: int, prec: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lo_i + hi_i) and (hi_i - lo_i) for integers lo_i <= x^i * 2^prec <= hi_i,
    x = 2cos(pi/M), i < deg.

    The bounds come from the certified enclosure of x, rounded outward at
    every power; x > 0 whenever the degree exceeds 1, so the powers of the
    enclosure's ends bound the powers of x.
    """
    _, deg, _ = _field_data(M)
    lo, hi = _generator_enclosure(M, prec)
    if lo <= 0:
        raise ArithmeticError(f"enclosure of 2cos(pi/{M}) is not positive")
    low = high = 1 << prec
    centres, radii = [], []
    for _ in range(deg):
        centres.append(low + high)
        radii.append(high - low)
        low = low * lo.numerator // lo.denominator
        high = -(-high * hi.numerator // hi.denominator)
    return tuple(centres), tuple(radii)


def int_sign(M: int, coeffs) -> int:
    """Exact sign of sum(coeffs[i] * x^i), x = 2cos(pi/M), for integers.

    Zero iff the vector is zero (the power basis is faithful).  A nonzero
    vector whose coefficients share one sign has that sign, as x > 0 (in
    degree 1 the vector is its constant).  Otherwise 2^(prec+1) times the
    value lies in [C - R, C + R], with C = sum c_i (lo_i + hi_i) and
    R = sum |c_i| (hi_i - lo_i) from `_power_bounds`; the precision is
    doubled until that interval excludes zero, which terminates because a
    nonzero algebraic number has nonzero value, or past MAX_SIGN_BITS with a
    ResourceLimitError.  No float decides a sign.
    """
    if min(coeffs) >= 0:
        return 1 if any(coeffs) else 0
    if max(coeffs) <= 0:
        return -1
    prec = 64
    while True:
        centres, radii = _power_bounds(M, prec)
        centre = sum(map(mul, coeffs, centres))
        radius = sum(map(mul, map(abs, coeffs), radii))
        if centre > radius:
            return 1
        if centre < -radius:
            return -1
        prec *= 2
        if prec > MAX_SIGN_BITS:
            raise ResourceLimitError("sign precision bits", MAX_SIGN_BITS)


def sign(x: CycloReal) -> int:
    """Exact sign of x under the real embedding 2cos(pi/M) -> its real value:
    clear the denominators and take the certified integer sign."""
    denom = 1
    for c in x.coeffs:
        denom = lcm(denom, Fraction(c).denominator)
    return int_sign(x.modulus, [int(c * denom) for c in x.coeffs])


def primitive_vector(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, preserving direction."""
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)
