"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored in canonical form: phi(N) integer numerators `nums`
over one positive integer denominator `den`, in the power basis 1, zeta, ...,
zeta^(phi(N)-1), with gcd(den, *nums) = 1, so zero is (0, ..., 0)/1.
Equality is exact equality of (nums, den), so values coming from different
computation routes can be compared directly.  There is one reduction rule:
a power of zeta, a product or an inverse is written as a dense polynomial
in zeta (exponents folded mod N) and reduced to its remainder modulo the
N-th cyclotomic polynomial Phi_N.

The arithmetic is on integers: a product is an integer convolution of the
numerators, reduced mod Phi_N, over the product of the denominators, and
every result is divided through by one gcd.  An inverse is the product of
the other Galois conjugates zeta -> zeta^j, j prime to N, over the norm,
which is an integer.  Phi_N itself is built by exact integer division of
x^N - 1.  Fractions appear only at the edges: the `coeffs` view and the
text form.

All values are immutable; the module-level cache of cyclotomic polynomials
is populated lazily and is safe for concurrent read-through use (entries are
only ever added, never mutated).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

from .text import join_terms, power, term

Scalar = Union[int, Fraction]


def _poly_mul(a: list, b: list) -> list:
    """The product of two polynomials, with int or Fraction coefficients;
    trailing zeros are kept."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _divide_exact(a, b) -> list:
    """The quotient a / b, for b monic with integer coefficients (ascending,
    any trailing zeros of a allowed); ArithmeticError if b does not divide a."""
    a, d = list(a), len(b) - 1
    q = [0] * max(len(a) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + d]
        if c:
            for j, p in enumerate(b, k):
                if p:
                    a[j] -= c * p
    if any(a[:d]):
        raise ArithmeticError("division left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_n, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce(level: int, poly: list) -> list:
    """The remainder of poly (ascending, any length) modulo the monic Phi_level,
    as phi(level) coefficients; poly is consumed.  Integer coefficients give
    integer remainders, which the integer-row q-series products rely on."""
    phi_poly = cyclotomic_polynomial(level)
    phi = len(phi_poly) - 1
    for k in range(len(poly) - 1, level - 1, -1):  # fold first: x^level = 1 mod Phi_level
        poly[k - level] += poly.pop()
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, p in enumerate(phi_poly, k - phi):
                if p:
                    poly[j] -= c * p
    del poly[phi:]
    poly.extend([0] * (phi - len(poly)))
    return poly


class CyclotomicNumber:
    """An element of Q(zeta_N) in canonical form: the integers `nums` over
    the positive integer `den`, with gcd(den, *nums) = 1."""

    __slots__ = ("level", "nums", "den")

    def __init__(self, level: int, coeffs) -> None:
        if level < 1:
            raise ValueError("cyclotomic level must be positive")
        phi = euler_phi(level)
        vec = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(vec) != phi:
            raise ValueError(f"expected {phi} coefficients for level {level}, got {len(vec)}")
        # a prime divides den as often as it divides some reduced denominator,
        # and not that coefficient's numerator: gcd(den, *nums) = 1 as built
        den = lcm(*(c.denominator for c in vec))
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "nums",
                           tuple(c.numerator * (den // c.denominator) for c in vec))
        object.__setattr__(self, "den", den)

    @classmethod
    def _normalized(cls, level: int, nums, den: int) -> "CyclotomicNumber":
        """sum_i nums[i] zeta^i / den, from phi(level) ints and an int den > 0,
        divided through by their gcd."""
        g = gcd(den, *nums)
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "nums",
                           tuple(nums) if g == 1 else tuple(x // g for x in nums))
        object.__setattr__(out, "den", den // g)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coordinates in the power basis 1, zeta, ..., as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, level: int, value: Scalar) -> "CyclotomicNumber":
        value = Fraction(value)
        nums = [0] * euler_phi(level)
        nums[0] = value.numerator
        return cls._normalized(level, nums, value.denominator)

    @classmethod
    def zeta(cls, level: int, power: int = 1) -> "CyclotomicNumber":
        return cls._normalized(level, _reduce(level, [0] * (power % level) + [1]), 1)

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.level != self.level:
                raise ValueError("incompatible cyclotomic levels")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.level, other)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return CyclotomicNumber._normalized(
            self.level, [a * db + b * da for a, b in zip(self.nums, o.nums)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return CyclotomicNumber._normalized(self.level, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.level != self.level:
                raise ValueError("incompatible cyclotomic levels")
            nums = _reduce(self.level, _poly_mul(self.nums, other.nums))
            return CyclotomicNumber._normalized(self.level, nums, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return CyclotomicNumber._normalized(
                self.level, [a * other.numerator for a in self.nums],
                self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if not self:
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.level})")
        # the norm: A times its conjugates sigma_j(A), j in (Z/N)^* other than
        # 1, is a nonzero integer c, so 1/(A/den) = den * (the conjugates) / c
        level, nums = self.level, self.nums
        others = [1]
        for j in range(2, level):
            if gcd(j, level) == 1:
                conjugate = [0] * level
                for i, x in enumerate(nums):
                    conjugate[i * j % level] = x
                others = _reduce(level, _poly_mul(others, conjugate))
        c, *rest = _reduce(level, _poly_mul(nums, others))
        if not c or any(rest):
            raise AssertionError("the norm of a nonzero element was not a nonzero integer")
        scale = self.den if c > 0 else -self.den
        return CyclotomicNumber._normalized(level, [x * scale for x in others], abs(c))

    # -- predicates and conversions ----------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.level, self.nums, self.den))

    # -- text form ----------------------------------------------------------

    def paren_str(self) -> str:
        """'(c0 + c1*z + ...)' in powers of z = zeta_N, without the field."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(term(str(c), power("z", i)))
        return f"({join_terms(parts)})"

    def __str__(self) -> str:
        return f"{self.paren_str()} @ Q(zeta_{self.level})"

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.level}, {[str(c) for c in self.coeffs]})"
