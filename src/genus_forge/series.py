"""Truncated formal power series in one variable over an exact field.

A TruncSeries carries its own truncation bookkeeping: `cutoff` is the first
untrusted exponent, stored alongside the coefficients, and every operation
propagates the weakest honest cutoff of its inputs.  Orders are never
silently extended.

Exponents are nonnegative integers, and the operands of +, - and * are
series in the same variable, or a series and a scalar.  Coefficients are
Fraction or int (the s-series of the index limit) or CyclotomicNumber (the
q- and x-series over Q(zeta_N)).  A product trusts every key below
min(cutoff_a + lowest key of b, cutoff_b + lowest key of a), so a factor
with a zero constant term raises the cutoff of a product above the cutoffs
of its factors.  Only a series with a nonzero constant term has an inverse.

A product has two paths, with the same cutoff, the same dropped zeros and
the same canonical coefficients.  When every coefficient of both factors
lies in one Q(zeta_N), it is one fused multiply-accumulate on integers:
each factor becomes rows of phi(N) numerators over one common
denominator, each row one Python int (Kronecker substitution in zeta
only), each pair of coefficients one integer multiply into the unreduced
sum of its q-degree, and each output coefficient is reduced mod Phi_N and
divided by a gcd once.  Factors of two levels raise ValueError.  Any other
product, with a rational coefficient on either side, is the
per-coefficient double loop on the coefficients' own arithmetic.

PackedSeries is the kernel of the localization route, q-series over
Q(zeta_N) at one precision: an integer matrix of shape precision x phi(N)
over one common denominator, multiplied by Kronecker substitution in q
and zeta into a single Python int (Harvey, arXiv:0712.4046).  Its cutoff
is always its precision, and a product is truncated there, whatever
TruncSeries would trust.  It meets the rest of the program only through
`to_series`.  The fused TruncSeries product shares no code with it, so
the two genus routes, one on each, share no product.

`todd_coefficient` reads the Todd series x/(1 - e^-x), which the index
limit and the chi_y genus use, from the Bernoulli numbers; only the route
that must not use them (`modular.classical_x_series`) inverts a series.

All instances are immutable, and the Bernoulli cache below is append-only,
so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .cyclotomic import CyclotomicNumber, _reduce, euler_phi
from .text import join_terms, power, term

_SCALARS = (int, Fraction)

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the binomial recurrence (memoized)."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        s = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(Fraction(-s, m + 1))
    return _bernoulli_cache[k]


def todd_coefficient(m: int) -> Fraction:
    """The x^m coefficient (-1)^m B_m / m! of the Todd series x/(1 - e^-x)."""
    return (-1) ** m * bernoulli(m) / factorial(m)


def _invert_coeff(c):
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, int):
        return Fraction(1, c)
    return c.inverse()


class TruncSeries:
    """A truncated power series sum_k c_k * var^k with 0 <= k < cutoff."""

    __slots__ = ("var", "cutoff", "coeffs")

    def __init__(self, var: str, coeffs, *, cutoff: int) -> None:
        clean = {}
        for k, c in dict(coeffs).items():
            if not isinstance(k, int):
                raise TypeError("exponent keys must be integers")
            if k < 0:
                raise ValueError("negative exponent in a power series")
            if k >= cutoff or not c:
                continue
            clean[k] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _raw(cls, var: str, coeffs: dict, cutoff: int) -> "TruncSeries":
        """Trusted construction, with nothing checked or dropped: coeffs
        must have int keys in [0, cutoff) and no zero coefficient, as this
        class's own arithmetic builds them."""
        self = object.__new__(cls)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "cutoff", cutoff)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, var: str, cutoff: int):
        return cls(var, {}, cutoff=cutoff)

    # -- basic queries --------------------------------------------------------

    def coeff(self, key: int):
        """Coefficient at exponent key, which must be below the cutoff.  An
        absent key reads as c * 0 for a stored coefficient c, a zero of the
        coefficients' own domain; only a series that stores nothing gives
        Fraction(0)."""
        if key >= self.cutoff:
            raise ValueError(f"exponent {key} is beyond the trusted cutoff")
        if key in self.coeffs:
            return self.coeffs[key]
        return next(iter(self.coeffs.values()), Fraction(0)) * 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return (self.var == other.var and self.cutoff == other.cutoff
                    and self.coeffs == other.coeffs)
        if isinstance(other, _SCALARS) or isinstance(other, CyclotomicNumber):
            if not other:
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.cutoff, frozenset(self.coeffs.items())))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        merged = dict(self.coeffs)
        if isinstance(other, TruncSeries):
            if other.var != self.var:
                raise ValueError("series variable mismatch")
            cut = min(self.cutoff, other.cutoff)
            for k, c in other.coeffs.items():
                s = merged.get(k)
                merged[k] = c if s is None else s + c
        else:
            cut = self.cutoff
            merged[0] = merged.get(0, Fraction(0)) + other
        return TruncSeries._raw(self.var, {k: c for k, c in merged.items()
                                           if k < cut and c}, cut)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw(self.var, {k: -c for k, c in self.coeffs.items()},
                                self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self._scale(other)
        if other.var != self.var:
            raise ValueError("series variable mismatch")
        if not self.coeffs or not other.coeffs:
            cut = min(self.cutoff, other.cutoff)
            return TruncSeries._raw(self.var, {}, cut)
        cut = min(self.cutoff + min(other.coeffs), other.cutoff + min(self.coeffs))
        level = _field_level(self.coeffs, other.coeffs)
        if level is not None:
            return TruncSeries._raw(self.var, _field_product(level, self.coeffs,
                                                             other.coeffs, cut), cut)
        out = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                if k >= cut:
                    continue
                prod = a * b
                s = out.get(k)
                out[k] = prod if s is None else s + prod
        return TruncSeries._raw(self.var, {k: c for k, c in out.items() if c}, cut)

    __rmul__ = __mul__

    def _scale(self, factor):
        # exact coefficients have no zero divisors: only a zero factor gives zeros
        out = {k: c * factor for k, c in self.coeffs.items()} if factor else {}
        return TruncSeries._raw(self.var, out, self.cutoff)

    def inverse(self) -> "TruncSeries":
        """1/self; the constant term must be nonzero."""
        c0 = self.coeffs.get(0)
        if c0 is None:
            raise ValueError("series with zero constant term is not invertible")
        c0_inv = _invert_coeff(c0)
        inv = {0: c0_inv}
        for k in range(1, self.cutoff):
            s = None
            for j in range(1, k + 1):
                cj = self.coeffs.get(j)
                ij = inv.get(k - j)
                if cj is None or ij is None:
                    continue
                t = cj * ij
                s = t if s is None else s + t
            if s is not None and s:
                inv[k] = -(c0_inv * s)
        return TruncSeries._raw(self.var, inv, self.cutoff)

    # -- text form ---------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k in sorted(self.coeffs):
            parts.append(term(_render_series_coeff(self.coeffs[k]),
                              power(self.var, k)))
        return f"{join_terms(parts)} + O({self.var}^{self.cutoff})"

    def __repr__(self) -> str:
        return f"<TruncSeries {self}>"


class PackedSeries:
    """A q-series over Q(zeta_N) trusted through q^(precision-1), packed.

    `entries` is the integer matrix (q-degree x power of zeta) stored row by
    row: precision rows of phi(N) entries, and the q^n coefficient is
    sum_j entries[n*phi + j] * zeta^j / denom.  The denominator is positive
    and shares no factor with all the entries, so equal series have equal
    fields.  The cutoff is always `precision`.
    """

    __slots__ = ("level", "precision", "entries", "denom")

    def __init__(self, level: int, precision: int, entries, denom: int = 1) -> None:
        entries = tuple(entries)
        if len(entries) != precision * euler_phi(level):
            raise ValueError("entry count does not match precision x phi(N)")
        g = gcd(denom, *entries)
        if denom < 0:
            g = -g
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "entries",
                           entries if g == 1 else tuple(e // g for e in entries))
        object.__setattr__(self, "denom", denom // g)

    def __setattr__(self, name, value):
        raise AttributeError("PackedSeries is immutable")

    def __bool__(self) -> bool:
        return any(self.entries)

    def __mul__(self, other: "PackedSeries") -> "PackedSeries":
        """The product through q^(precision-1), by one integer multiply.

        Slot (n, j) of a packed operand holds the q^n zeta^j entry, with
        2*phi - 1 slots per q-degree, so the zeta-degrees of a product row
        never spill into the next row.  A slot is wide enough for any
        product entry, a sum of at most precision*phi products of entries,
        plus a sign bit.  Each product row is reduced once mod Phi_N.
        """
        N, P = self.level, self.precision
        if (other.level, other.precision) != (N, P):
            raise ValueError("packed series of different level or precision")
        if not self or not other:
            return PackedSeries(N, P, [0] * len(self.entries))
        phi = euler_phi(N)
        span = 2 * phi - 1
        bound = (max(map(abs, self.entries)) * max(map(abs, other.entries))
                 * P * phi)
        width = (bound.bit_length() + 8) // 8          # bytes, sign bit included
        slots = P * span
        digits = (_pack(self.entries, phi, span, width)
                  * _pack(other.entries, phi, span, width))
        # add half of each slot's range so that every slot reads nonnegative,
        # with no borrow between slots; slots from q^P up are cut off
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
        low = (digits + bias) & ((1 << (8 * width * slots)) - 1)
        data = low.to_bytes(width * slots, "little")
        entries = []
        for n in range(P):
            base = n * span * width
            row = [int.from_bytes(data[i:i + width], "little") - half
                   for i in range(base, base + span * width, width)]
            entries += _reduce(N, row)
        return PackedSeries(N, P, entries, self.denom * other.denom)

    @classmethod
    def combination(cls, terms, level: int, precision: int) -> "PackedSeries":
        """sum c * g over (c, g) in terms, c rational, over one denominator."""
        terms = [(Fraction(c), g) for c, g in terms]
        denom = lcm(*(c.denominator * g.denom for c, g in terms))
        total = [0] * (precision * euler_phi(level))
        for c, g in terms:
            scale = c.numerator * (denom // (c.denominator * g.denom))
            total = [t + scale * e for t, e in zip(total, g.entries)]
        return cls(level, precision, total, denom)

    def to_series(self) -> TruncSeries:
        phi = euler_phi(self.level)
        coeffs = {}
        for n in range(self.precision):
            row = self.entries[n * phi:(n + 1) * phi]
            if any(row):
                coeffs[n] = CyclotomicNumber._normalized(self.level, row, self.denom)
        return TruncSeries("q", coeffs, cutoff=self.precision)


def _pack(entries, phi: int, span: int, width: int) -> int:
    """sum of entries[n*phi + j] * 2^(8*width*(n*span + j)), as one int.

    Each entry is written as a width-byte two's complement slot, which adds
    2^(8*width) for a negative one; that carry is subtracted afterwards.
    """
    rows = len(entries) // phi
    pad = bytes(width * (span - phi))
    chunks, borrow = [], bytearray(width * span * rows + 1)
    for n in range(rows):
        for j in range(phi):
            e = entries[n * phi + j]
            chunks.append(e.to_bytes(width, "little", signed=True))
            if e < 0:
                borrow[(n * span + j + 1) * width] = 1
        chunks.append(pad)
    return (int.from_bytes(b"".join(chunks), "little")
            - int.from_bytes(borrow, "little"))


def _field_level(a: dict, b: dict):
    """N when every coefficient of a and b is a CyclotomicNumber of level N,
    None when some coefficient is rational."""
    coeffs = [*a.values(), *b.values()]
    if any(type(c) is not CyclotomicNumber for c in coeffs):
        return None
    levels = {c.level for c in coeffs}
    if len(levels) > 1:
        raise ValueError("incompatible cyclotomic levels")
    return levels.pop()


def _field_rows(coeffs: dict):
    """The coefficients as (key, phi integer numerators) in key order, over
    their least common denominator, and that denominator."""
    den = lcm(*(c.den for c in coeffs.values()))
    return ([(k, [x * (den // c.den) for x in c.nums]) for k, c in sorted(coeffs.items())],
            den)


def _field_product(level: int, a: dict, b: dict, cut: int) -> dict:
    """The coefficients below `cut` of the product of two series over
    Q(zeta_level), given as {key: CyclotomicNumber}.

    Every q^k coefficient is summed over its pairs (i, j), i + j = k, on
    integers, then reduced once mod Phi_level and divided through by one gcd.
    Each numerator row is packed into one int, entry e at bit `width` * e
    (Kronecker substitution in zeta only), so the product of two packed rows
    holds their 2*phi - 1 convolution entries and a pair costs one integer
    multiply.  An entry of a q^k sum is at most phi * max|a| * max|b| per
    pair, over at most min(len(a), len(b)) pairs; `width` is one bit more
    than that bound needs, for the sign, so no entry spills into the next.
    """
    phi = euler_phi(level)
    rows_a, den_a = _field_rows(a)
    rows_b, den_b = _field_rows(b)
    bound = (max(abs(x) for _, row in rows_a for x in row)
             * max(abs(x) for _, row in rows_b for x in row)
             * phi * min(len(rows_a), len(rows_b)))
    width = bound.bit_length() + 1
    packed_b = [(j, _pack_row(row, width)) for j, row in rows_b]
    sums: dict[int, int] = {}
    for i, row in rows_a:
        x = _pack_row(row, width)
        for j, y in packed_b:
            k = i + j
            if k >= cut:
                break
            sums[k] = sums.get(k, 0) + x * y
    # add half of each entry's range so that every entry reads nonnegative,
    # with no borrow between entries
    half, mask = 1 << (width - 1), (1 << width) - 1
    span = range(0, (2 * phi - 1) * width, width)
    bias = sum(half << shift for shift in span)
    den, out = den_a * den_b, {}
    for k, v in sums.items():
        v += bias
        nums = _reduce(level, [((v >> shift) & mask) - half for shift in span])
        if any(nums):
            out[k] = CyclotomicNumber._normalized(level, nums, den)
    return out


def _pack_row(row: list, width: int) -> int:
    """sum of row[e] * 2^(width*e), as one int."""
    x = 0
    for e in reversed(row):
        x = (x << width) + e
    return x


def _render_series_coeff(c) -> str:
    if isinstance(c, CyclotomicNumber):
        if c.is_rational():
            return str(c.rational_value())
        return c.paren_str()
    return str(c)
