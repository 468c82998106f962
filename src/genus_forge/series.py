"""Truncated formal power series in one variable over an exact field.

A TruncSeries carries its own truncation bookkeeping: `cutoff` is the first
untrusted exponent, stored alongside the coefficients, and every operation
propagates the weakest honest cutoff of its inputs.  Orders are never
silently extended.

Every series lies in one field Q(zeta_L), its `level` L (L = 1 for Q), and
is held as one dense integer matrix, cutoff rows of phi(L) entries (the
power basis 1, zeta, ..., zeta^(phi(L)-1)), over one positive denominator,
divided through by one gcd so that equal series have equal fields.  A
series over Q meets one over Q(zeta_N) at level N; two other levels raise
ValueError.  Sums, rational multiples, products, inverses and equality all
work on the rows; a coefficient becomes a Fraction (L = 1) or a
CyclotomicNumber only when it is read (`coeff`, `coeffs`, the text form).

Exponents are nonnegative integers, and the operands of +, - and * are
series in the same variable, or a series and a scalar.  A product trusts
every key below min(cutoff_a + valuation of b, cutoff_b + valuation of a),
so a factor with a zero constant term raises the cutoff of a product above
the cutoffs of its factors.  It is one multiply-accumulate on integers:
each row is one Python int (Kronecker substitution in zeta only), each pair
of nonzero rows one integer multiply into the unreduced sum of its degree,
and each output row is reduced mod Phi_L once.  Only a series with a
nonzero constant term has an inverse.

`kronecker_product` is the kernel of the localization route: the product
of two series of one level N and one cutoff P, truncated at P, by
Kronecker substitution in q and zeta into a single Python int (Harvey,
arXiv:0712.4046).  It shares no code with the product of `__mul__`, so
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


class TruncSeries:
    """A truncated power series sum_k c_k * var^k with 0 <= k < cutoff, over
    Q(zeta_level), with level 1 for Q.

    `entries` is the integer matrix (exponent x power of zeta) stored row by
    row: cutoff rows of phi(level) entries, and c_k is
    sum_j entries[k*phi + j] * zeta^j / denom.  The denominator is positive
    and shares no factor with all the entries, so equal series have equal
    fields.
    """

    __slots__ = ("var", "level", "cutoff", "entries", "denom")

    def __init__(self, var: str, coeffs, *, cutoff: int) -> None:
        rows = {}   # key -> coefficient, a rational one as a CyclotomicNumber of level 1
        for k, c in dict(coeffs).items():
            if not isinstance(k, int):
                raise TypeError("exponent keys must be integers")
            if k < 0:
                raise ValueError("negative exponent in a power series")
            if k < cutoff:
                if not isinstance(c, CyclotomicNumber):
                    c = Fraction(c)
                    c = CyclotomicNumber._normalized(1, (c.numerator,), c.denominator)
                rows[k] = c
        level = _common_level(*rows.values())
        phi = euler_phi(level)
        den = lcm(*(c.den for c in rows.values()))
        entries = [0] * (cutoff * phi)
        for k, c in rows.items():
            entries[k * phi:k * phi + len(c.nums)] = [x * (den // c.den) for x in c.nums]
        _init(self, var, level, cutoff, entries, den)

    @classmethod
    def _normalized(cls, var: str, level: int, cutoff: int, entries,
                    denom: int) -> "TruncSeries":
        """sum_k sum_j entries[k*phi + j] zeta^j var^k / denom, from
        cutoff * phi(level) ints and a nonzero int denom, divided through by
        their gcd (negated for a negative denom)."""
        self = object.__new__(cls)
        _init(self, var, level, cutoff, entries, denom)
        return self

    @classmethod
    def combination(cls, terms) -> "TruncSeries":
        """sum c * s over the (c, s) in terms, nonempty, c rational and every
        s a series in one variable: one pass over the integer rows per term,
        over one common denominator, and one gcd.  The cutoff is the least."""
        terms = list(terms)
        var = terms[0][1].var
        if any(s.var != var for _, s in terms):
            raise ValueError("series variable mismatch")
        level = _common_level(*(s for _, s in terms))
        size = min(s.cutoff for _, s in terms) * euler_phi(level)
        den = lcm(*(c.denominator * s.denom for c, s in terms))
        total = [0] * size
        for c, s in terms:
            scale = c.numerator * (den // (c.denominator * s.denom))
            total = [t + scale * e for t, e in zip(total, s._at(level).entries)]
        return cls._normalized(var, level, size // euler_phi(level), total, den)

    @classmethod
    def _constant(cls, var: str, value, cutoff: int) -> "TruncSeries":
        return cls(var, {0: value}, cutoff=cutoff)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, var: str, cutoff: int):
        return cls(var, {}, cutoff=cutoff)

    # -- basic queries --------------------------------------------------------

    def coeff(self, key: int):
        """Coefficient at exponent key, which must be below the cutoff: a
        Fraction at level 1, else a CyclotomicNumber of the series' level."""
        if key >= self.cutoff:
            raise ValueError(f"exponent {key} is beyond the trusted cutoff")
        phi = euler_phi(self.level)
        return self._read(self.entries[key * phi:(key + 1) * phi] if key >= 0 else (0,) * phi)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients, {exponent: coefficient}, in key order."""
        if not self:
            return {}
        phi = euler_phi(self.level)
        rows = (self.entries[k * phi:(k + 1) * phi] for k in range(self.cutoff))
        return {k: self._read(row) for k, row in enumerate(rows) if any(row)}

    def _read(self, row):
        if self.level == 1:
            return Fraction(row[0], self.denom)
        return CyclotomicNumber._normalized(self.level, row, self.denom)

    def valuation(self) -> int:
        """The lowest exponent with a nonzero coefficient; the cutoff for a
        series that is zero through its cutoff."""
        phi = euler_phi(self.level)
        first = next((i for i, x in enumerate(self.entries) if x), None)
        return self.cutoff if first is None else first // phi

    def __bool__(self) -> bool:
        return any(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            if self.level != other.level:
                return (self.var, self.cutoff, self.coeffs) == \
                    (other.var, other.cutoff, other.coeffs)
            return (self.var, self.cutoff, self.entries, self.denom) == \
                (other.var, other.cutoff, other.entries, other.denom)
        if isinstance(other, (*_SCALARS, CyclotomicNumber)):
            if not other:
                return not self
            return self.cutoff > 0 and self == TruncSeries._constant(self.var, other,
                                                                     self.cutoff)
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.cutoff, frozenset(self.coeffs.items())))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            if not isinstance(other, (*_SCALARS, CyclotomicNumber)):
                return NotImplemented
            other = TruncSeries._constant(self.var, other, self.cutoff)
        return TruncSeries.combination([(1, self), (1, other)])

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return TruncSeries.combination([(other, self)])
        if isinstance(other, CyclotomicNumber):
            other = TruncSeries._constant(self.var, other, self.cutoff)
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        elif other.var != self.var:
            raise ValueError("series variable mismatch")
        level = _common_level(self, other)
        a, b = self._at(level), other._at(level)
        if not a or not b:
            cut = min(a.cutoff, b.cutoff)
            return TruncSeries._normalized(self.var, level, cut,
                                           [0] * (cut * euler_phi(level)), 1)
        cut = min(a.cutoff + b.valuation(), b.cutoff + a.valuation())
        return TruncSeries._normalized(self.var, level, cut,
                                       _row_product(level, a.entries, b.entries, cut),
                                       a.denom * b.denom)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """1/self; the constant term must be nonzero.  Newton's iteration
        g -> g (2 - self g) from the inverse of the constant term (by the
        norm, `CyclotomicNumber.inverse`) doubles the number of correct
        terms per step."""
        if not self or self.valuation():
            raise ValueError("series with zero constant term is not invertible")
        phi = euler_phi(self.level)
        head = CyclotomicNumber._normalized(self.level, self.entries[:phi],
                                            self.denom).inverse()
        inv = TruncSeries._normalized(self.var, self.level, self.cutoff,
                                      head.nums + (0,) * ((self.cutoff - 1) * phi), head.den)
        for _ in range(self.cutoff.bit_length()):
            inv = inv * (2 - self * inv)
        return inv

    def _at(self, level: int) -> "TruncSeries":
        """This series over Q(zeta_level); self.level must be 1 or level."""
        if level == self.level:
            return self
        pad = [0] * (euler_phi(level) - 1)
        return TruncSeries._normalized(self.var, level, self.cutoff,
                                       [y for x in self.entries for y in (x, *pad)],
                                       self.denom)

    # -- text form ---------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in self.coeffs.items():
            if isinstance(c, CyclotomicNumber):
                text = str(c.rational_value()) if c.is_rational() else c.paren_str()
            else:
                text = str(c)
            parts.append(term(text, power(self.var, k)))
        return f"{join_terms(parts)} + O({self.var}^{self.cutoff})"

    def __repr__(self) -> str:
        return f"<TruncSeries {self}>"


def _init(series: TruncSeries, var: str, level: int, cutoff: int, entries,
          denom: int) -> None:
    """Set the fields of a new series, entries and denom divided through by
    their gcd, with its sign taken from denom."""
    g = gcd(denom, *entries)
    if denom < 0:
        g = -g
    object.__setattr__(series, "var", var)
    object.__setattr__(series, "level", level)
    object.__setattr__(series, "cutoff", cutoff)
    object.__setattr__(series, "entries",
                       tuple(entries) if g == 1 else tuple([x // g for x in entries]))
    object.__setattr__(series, "denom", denom // g)


def _common_level(*values) -> int:
    """The level that all the series or field elements lie in: Q lies in
    every Q(zeta_N)."""
    levels = {v.level for v in values} - {1}
    if len(levels) > 1:
        raise ValueError("incompatible cyclotomic levels")
    return levels.pop() if levels else 1


def kronecker_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b through q^(P-1), for two series of one level N and one cutoff
    P, by one integer multiply: Kronecker substitution in q and zeta
    (Harvey, arXiv:0712.4046).  The cutoff stays P, whatever `__mul__`
    would trust.

    Slot (n, j) of a packed operand holds the q^n zeta^j entry, with
    2*phi - 1 slots per q-degree, so the zeta-degrees of a product row
    never spill into the next row.  A slot is wide enough for any product
    entry, a sum of at most P*phi products of entries, plus a sign bit.
    Each product row is reduced once mod Phi_N.
    """
    N, P = a.level, a.cutoff
    if (b.var, b.level, b.cutoff) != (a.var, N, P):
        raise ValueError("series of different variable, level or cutoff")
    if not a or not b:
        return TruncSeries._normalized(a.var, N, P, [0] * len(a.entries), 1)
    phi = euler_phi(N)
    span = 2 * phi - 1
    bound = max(map(abs, a.entries)) * max(map(abs, b.entries)) * P * phi
    width = (bound.bit_length() + 8) // 8          # bytes, sign bit included
    slots = P * span
    digits = _pack(a.entries, phi, span, width) * _pack(b.entries, phi, span, width)
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
    return TruncSeries._normalized(a.var, N, P, entries, a.denom * b.denom)


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


def _row_product(level: int, a, b, cut: int) -> list:
    """The first `cut` rows of the product of two row matrices over
    Q(zeta_level), as in TruncSeries.entries, over the product of their
    denominators.

    Every row k is summed over its pairs (i, j), i + j = k, on integers,
    then reduced once mod Phi_level.  Each row is packed into one int, entry
    e at bit `width` * e (Kronecker substitution in zeta only), so the
    product of two packed rows holds their 2*phi - 1 convolution entries and
    a pair costs one integer multiply.  An entry of a row sum is at most
    phi * max|a| * max|b| per pair, over at most as many pairs as the
    sparser factor has nonzero rows; `width` is one bit more than that
    bound needs, for the sign, so no entry spills into the next.  At
    phi = 1 a packed row is its one entry.
    """
    phi = euler_phi(level)
    rows_a = [(i, a[i * phi:(i + 1) * phi]) for i in range(len(a) // phi)
              if any(a[i * phi:(i + 1) * phi])]
    rows_b = [(j, b[j * phi:(j + 1) * phi]) for j in range(len(b) // phi)
              if any(b[j * phi:(j + 1) * phi])]
    bound = max(map(abs, a)) * max(map(abs, b)) * phi * min(len(rows_a), len(rows_b))
    width = bound.bit_length() + 1
    packed_b = [(j, _pack_row(row, width)) for j, row in rows_b]
    sums = [0] * cut
    for i, row in rows_a:
        x = _pack_row(row, width)
        for j, y in packed_b:
            k = i + j
            if k >= cut:
                break
            sums[k] += x * y
    if phi == 1:
        return sums
    # add half of each entry's range so that every entry reads nonnegative,
    # with no borrow between entries
    half, mask = 1 << (width - 1), (1 << width) - 1
    span = range(0, (2 * phi - 1) * width, width)
    bias = sum(half << shift for shift in span)
    out, zeros = [], [0] * phi
    for v in sums:
        if v:
            v += bias
            out += _reduce(level, [((v >> shift) & mask) - half for shift in span])
        else:
            out += zeros
    return out


def _pack_row(row: list, width: int) -> int:
    """sum of row[e] * 2^(width*e), as one int."""
    x = 0
    for e in reversed(row):
        x = (x << width) + e
    return x
