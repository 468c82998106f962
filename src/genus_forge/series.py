"""Truncated formal power and Laurent series over an exact coefficient domain.

A TruncSeries carries its own truncation bookkeeping: `cutoff` is the first
untrusted exponent, stored alongside the coefficients, and every operation
propagates the weakest honest cutoff of its inputs.  Orders are never
silently extended.

Exponents are integers in units of 1/denom, so a series in q^(1/D) is
represented with denom = D.  Negative exponents are permitted only when the
series is flagged as Laurent.

The coefficient domain is duck typed: Fraction, CyclotomicNumber, SparsePoly
and TruncSeries itself (nested series) all work, since only +, *, unary -,
bool and an inverse are required.  All instances are immutable, and the
Bernoulli cache below is append-only, so everything here is safe to share
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import CyclotomicNumber
from .text import join_terms

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


def _invert_coeff(c):
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, int):
        return Fraction(1, c)
    return c.inverse()


class TruncSeries:
    """A truncated series sum_k c_k * var^(k/denom) with k < cutoff."""

    __slots__ = ("var", "denom", "cutoff", "laurent", "coeffs")

    def __init__(self, var: str, coeffs, *, order=None, cutoff=None,
                 denom: int = 1, laurent: bool = False) -> None:
        if (order is None) == (cutoff is None):
            raise ValueError("give exactly one of order= or cutoff=")
        if denom < 1:
            raise ValueError("exponent denominator must be positive")
        cut = order * denom if cutoff is None else cutoff
        clean = {}
        for k, c in dict(coeffs).items():
            if not isinstance(k, int):
                raise TypeError("exponent keys must be integers")
            if k < 0 and not laurent:
                raise ValueError("negative exponent in a non-Laurent series")
            if k >= cut or not c:
                continue
            clean[k] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "cutoff", cut)
        object.__setattr__(self, "laurent", laurent)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, var: str, order, *, denom: int = 1, laurent: bool = False):
        return cls(var, {}, order=order, denom=denom, laurent=laurent)

    # -- basic queries --------------------------------------------------------

    @property
    def order(self):
        """Truncation exponent in variable units (Fraction when fractional)."""
        if self.cutoff % self.denom == 0:
            return self.cutoff // self.denom
        return Fraction(self.cutoff, self.denom)

    def coeff(self, key: int):
        """Coefficient at exponent key/denom (zero for absent trusted keys)."""
        if key >= self.cutoff:
            raise ValueError(f"exponent {key}/{self.denom} is beyond the trusted cutoff")
        return self.coeffs.get(key, Fraction(0))

    def coefficients_through(self, key: int) -> list:
        return [self.coeff(k) for k in range(0, key + 1)]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return (self.var == other.var and self.denom == other.denom
                    and self.cutoff == other.cutoff and self.coeffs == other.coeffs)
        if isinstance(other, _SCALARS) or isinstance(other, CyclotomicNumber):
            if not other:
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.denom, self.cutoff,
                     frozenset(self.coeffs.items())))

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other: "TruncSeries"):
        if self.denom != other.denom:
            raise ValueError("series exponent denominators differ")

    def __add__(self, other):
        if isinstance(other, TruncSeries) and other.var == self.var:
            self._check_compatible(other)
            cut = min(self.cutoff, other.cutoff)
            merged = dict(self.coeffs)
            for k, c in other.coeffs.items():
                s = merged.get(k)
                merged[k] = c if s is None else s + c
            return TruncSeries(self.var, merged, cutoff=cut, denom=self.denom,
                               laurent=self.laurent or other.laurent)
        merged = dict(self.coeffs)
        merged[0] = merged.get(0, Fraction(0)) + other
        return TruncSeries(self.var, merged, cutoff=self.cutoff,
                           denom=self.denom, laurent=self.laurent)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, {k: -c for k, c in self.coeffs.items()},
                           cutoff=self.cutoff, denom=self.denom, laurent=self.laurent)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncSeries) and other.var == self.var:
            self._check_compatible(other)
            if not self.coeffs or not other.coeffs:
                cut = min(self.cutoff, other.cutoff)
                return TruncSeries(self.var, {}, cutoff=cut, denom=self.denom,
                                   laurent=self.laurent or other.laurent)
            cut = min(self.cutoff + min(other.coeffs), other.cutoff + min(self.coeffs))
            out = {}
            for i, a in self.coeffs.items():
                for j, b in other.coeffs.items():
                    k = i + j
                    if k >= cut:
                        continue
                    prod = a * b
                    s = out.get(k)
                    out[k] = prod if s is None else s + prod
            return TruncSeries(self.var, out, cutoff=cut, denom=self.denom,
                               laurent=self.laurent or other.laurent)
        if isinstance(other, TruncSeries):
            # A series in a different variable is a legitimate scalar only in
            # the nested case, where our coefficients live in that variable.
            sample = next(iter(self.coeffs.values()), None)
            if sample is not None and not (isinstance(sample, TruncSeries)
                                           and sample.var == other.var):
                raise ValueError("series variable mismatch")
        return self._scale(other)

    __rmul__ = __mul__

    def _scale(self, factor):
        out = {}
        for k, c in self.coeffs.items():
            out[k] = c * factor
        return TruncSeries(self.var, out, cutoff=self.cutoff,
                           denom=self.denom, laurent=self.laurent)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        result = TruncSeries(self.var, {0: Fraction(1)}, cutoff=self.cutoff,
                             denom=self.denom, laurent=self.laurent)
        for _ in range(k):
            result = result * self
        return result

    def inverse(self) -> "TruncSeries":
        if not self.coeffs:
            raise ValueError("series not invertible")
        e = min(self.coeffs)
        c0 = self.coeffs[e]
        c0_inv = _invert_coeff(c0)
        window = self.cutoff - e  # trusted length of the shifted unit part
        shifted = {k - e: c for k, c in self.coeffs.items()}
        inv = {0: c0_inv}
        for k in range(1, window):
            s = None
            for j in range(1, k + 1):
                cj = shifted.get(j)
                ij = inv.get(k - j)
                if cj is None or ij is None:
                    continue
                t = cj * ij
                s = t if s is None else s + t
            if s is not None and s:
                inv[k] = -(c0_inv * s)
        cut = self.cutoff - 2 * e
        out = {k - e: c for k, c in inv.items() if k - e < cut and c}
        laurent = self.laurent or e > 0
        return TruncSeries(self.var, out, cutoff=cut, denom=self.denom, laurent=laurent)

    def __truediv__(self, other):
        if isinstance(other, TruncSeries) and other.var == self.var:
            return self * other.inverse()
        return self._scale(_invert_coeff(other))

    def shift(self, keys: int) -> "TruncSeries":
        """Multiply by var^(keys/denom), exactly."""
        out = {k + keys: c for k, c in self.coeffs.items()}
        laurent = self.laurent or any(k < 0 for k in out)
        return TruncSeries(self.var, out, cutoff=self.cutoff + keys,
                           denom=self.denom, laurent=laurent)

    def truncate(self, *, order=None, cutoff=None) -> "TruncSeries":
        cut = order * self.denom if cutoff is None else cutoff
        if cut > self.cutoff:
            raise ValueError("cannot extend a series truncation")
        return TruncSeries(self.var, self.coeffs, cutoff=cut,
                           denom=self.denom, laurent=self.laurent)

    # -- text form ---------------------------------------------------------------

    def _render_exponent(self, key: int) -> str:
        if key % self.denom == 0:
            e = key // self.denom
            if e == 1:
                return self.var
            return f"{self.var}^{e}"
        return f"{self.var}^({Fraction(key, self.denom)})"

    def __str__(self) -> str:
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            text = _render_series_coeff(c)
            if k == 0:
                parts.append(text)
                continue
            mono = self._render_exponent(k)
            if text == "1":
                parts.append(mono)
            elif text == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{text}*{mono}")
        tail_exp = self.cutoff // self.denom if self.cutoff % self.denom == 0 \
            else f"({Fraction(self.cutoff, self.denom)})"
        return f"{join_terms(parts)} + O({self.var}^{tail_exp})"

    def __repr__(self) -> str:
        return f"<TruncSeries {self}>"


def _render_series_coeff(c) -> str:
    if isinstance(c, CyclotomicNumber):
        if c.is_rational():
            return str(c.rational_value())
        body = str(c)
        return body[: body.rindex(") @")] + ")"
    text = str(c)
    if " " in text and not text.startswith("("):
        return f"({text})"
    return text


def exp_series(var: str, rate, order, *, denom: int = 1) -> TruncSeries:
    """exp(rate * x) as a truncated series in x with Fraction coefficients."""
    cut = order * denom
    coeffs = {}
    term = Fraction(1)
    rate = Fraction(rate)
    j = 0
    while j * denom < cut:
        coeffs[j * denom] = term
        j += 1
        term = term * rate / j
    return TruncSeries(var, coeffs, cutoff=cut, denom=denom)


def geometric_series(var: str, order, *, denom: int = 1) -> TruncSeries:
    """1/(1-x) truncated: 1 + x + x^2 + ..."""
    cut = order * denom
    return TruncSeries(var, {k: Fraction(1) for k in range(0, cut, denom)},
                       cutoff=cut, denom=denom)
