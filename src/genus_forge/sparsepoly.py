"""Sparse multivariate polynomials over Q with a graded lexicographic order.

Terms are stored as a map from exponent tuples to coefficients that are
`int` or `Fraction`: an integer stays an `int`, so integer data is added
and multiplied without `Fraction`, and anything else becomes a `Fraction`.
The public constructor validates its input; ring operations build their
results without checking them again.  The graded lex order (total degree
first, then lexicographic with the first variable largest) fixes leading
terms, printing and the exact-division algorithm.  Instances are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .text import join_terms, power, term

_SCALARS = (int, Fraction)


def _glex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class SparsePoly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object] | None = None) -> None:
        vs = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, c in (terms or {}).items():
            e = tuple(int(x) for x in exp)
            if len(e) != len(vs):
                raise ValueError("exponent arity does not match the variable list")
            if any(x < 0 for x in e):
                raise ValueError("negative exponents are not supported")
            c = c if type(c) is int else Fraction(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, vs: tuple, terms: dict) -> "SparsePoly":
        """Trusted construction from validated exponents and coefficients;
        only zero coefficients are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "SparsePoly":
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "SparsePoly":
        vs = tuple(variables)
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return cls(vs, {tuple(exp): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Sequence[int], coeff=1) -> "SparsePoly":
        return cls(variables, {tuple(exp): coeff})

    # -- queries ------------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_glex_key)
        return exp, self.terms[exp]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, _SCALARS):
            c = Fraction(other)
            if not c:
                return not self.terms
            return self.terms == {(0,) * len(self.vars): c}
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- ring operations --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.vars != self.vars:
                raise ValueError("polynomial variable lists differ")
            return other
        if isinstance(other, _SCALARS):
            return SparsePoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self.terms)
        for e, c in o.terms.items():
            merged[e] = merged.get(e, 0) + c
        return SparsePoly._raw(self.vars, merged)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        outer, inner = ((self.terms, o.terms) if len(self.terms) <= len(o.terms)
                        else (o.terms, self.terms))
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in outer.items():
            for e2, c2 in inner.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePoly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        result = SparsePoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- division ------------------------------------------------------------------

    def divmod_by(self, divisor: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        """Single-divisor reduction: self = q * divisor + r where no monomial
        of r is divisible by the leading monomial of the divisor."""
        d = self._coerce(divisor)
        if d is None or not d:
            raise ZeroDivisionError("polynomial division by zero")
        lead_exp, lead_coeff = d.leading_term()
        q: dict[tuple[int, ...], Fraction] = {}
        rem = dict(self.terms)
        while rem:
            exp = max(rem, key=_glex_key)
            c = rem[exp]
            t = tuple(a - b for a, b in zip(exp, lead_exp))
            if any(x < 0 for x in t):
                break
            factor = Fraction(c) / lead_coeff
            q[t] = q.get(t, Fraction(0)) + factor
            for e2, c2 in d.terms.items():
                e = tuple(a + b for a, b in zip(t, e2))
                new = rem.get(e, Fraction(0)) - factor * c2
                if new:
                    rem[e] = new
                else:
                    rem.pop(e, None)
        return SparsePoly(self.vars, q), SparsePoly(self.vars, rem)

    def exact_div(self, divisor: "SparsePoly") -> "SparsePoly":
        q, r = self.divmod_by(divisor)
        if r:
            raise ValueError("polynomial division left a remainder")
        return q

    # -- substitution and evaluation -----------------------------------------------------

    def evaluate(self, values: Sequence, one=1):
        """Evaluate at the given values (one per variable, any exact domain)."""
        if len(values) != len(self.vars):
            raise ValueError("value count does not match the variable list")
        total = None
        for exp, c in self.terms.items():
            term = None
            for v, e in zip(values, exp):
                for _ in range(e):
                    term = v if term is None else term * v
            term = c * one if term is None else c * term
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) * one
        return total

    def subs_signed(self, mapping: Mapping[int, tuple[int, int]]) -> "SparsePoly":
        """Substitute x_i -> sign * x_j per variable index (a signed permutation)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * len(self.vars)
            sign = 1
            for i, e in enumerate(exp):
                j, s = mapping.get(i, (i, 1))
                new[j] += e
                if s < 0 and e % 2 == 1:
                    sign = -sign
            e = tuple(new)
            out[e] = out.get(e, Fraction(0)) + sign * c
        return SparsePoly(self.vars, out)

    def with_vars(self, variables: Sequence[str]) -> "SparsePoly":
        """Reinterpret in a superset (or reordering) of the variables."""
        vs = tuple(variables)
        idx = [vs.index(v) for v in self.vars]
        out = {}
        for exp, c in self.terms.items():
            new = [0] * len(vs)
            for i, e in zip(idx, exp):
                new[i] = e
            out[tuple(new)] = c
        return SparsePoly(vs, out)

    # -- text form -----------------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for exp in sorted(self.terms, key=_glex_key, reverse=True):
            factors = []
            for v, e in zip(self.vars, exp):
                if e:
                    factors.append(power(v, e))
            parts.append(term(str(self.terms[exp]), "*".join(factors)))
        return join_terms(parts)

    def __repr__(self) -> str:
        return f"<SparsePoly {self}>"
