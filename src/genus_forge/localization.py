"""Everything localization buys us from the fixed points of a circle action.

A manifold enters the computation only through its fixed points
(`fixedpoints.FixedPointData`): at each isolated fixed point P of a circle
action on a 2n-manifold the tangent weights w_1(P), ..., w_n(P) are
nonzero integers, and the ABBV formula turns integrals into the sums

    C_lambda = sum_P  prod_i e_{lambda_i}(w(P)) / prod_j w_j(P)
    q_I      = sum_P  m_I(w(P)) / prod_j w_j(P).

The q_I of a request come from one `fixedpoints.relation_coefficients`
call, with one integer table of m_R per fixed point: the m_I kernel of
this route alone, apart from the one of the divided-difference route in
`coadjoint`.

For k > n the numbers q_I over partitions I of k assemble into relations
sum_I q_I * G_{I,N} = 0 among products of Eisenstein series whenever N
divides the index of the manifold.  For k = n the same sum is the level-N
elliptic genus, and N | index alone does not make it vanish.  In those
sums each product G_I is taken by `series.kronecker_product`, memoized per
(I, N, precision) and truncated at that precision, and the sum is one
`TruncSeries.combination`.  The second genus route, `genus_via_chern`,
multiplies with `TruncSeries.__mul__` and stays off the memo, so a fault
in either product shows as disagreement.

Equivariant indices are computed from the Atiyah-Segal fixed-point sum
by an exact t -> 1 limit: substitute t = exp(s), multiply through by s^n
to clear the order-n pole, and read off the s^n coefficient.  The factor
s^n / prod_j (1 - t^-w_j) of a point is built once and kept per weight
vector, as it does not depend on the numerator: it is a product of Todd
factors s/(1 - e^(-w s)), read from the Bernoulli numbers.  The Hilbert
polynomials H_m(x) come from the same sum in one pass, with the twist
t^(-x W(P)/N) expanded in x, so each coefficient of x is read off directly.

Everything is exact; an unexpected non-integer or a surviving pole is
reported as bad input data, never rounded away.  The q- and s-series
modules, `symfunc` and `sparsepoly` are imported by the functions that run
them, and the partitions come from `fixedpoints`.  So a request loads only
what it runs: `relations` no `symfunc` and no `sparsepoly`, `genus`
`symfunc` (for the Chern-number route) but no `sparsepoly`, `chiy`
`sparsepoly` alone, and `hilbert` `sparsepoly` and the s-series but no
`modular`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod
from typing import TYPE_CHECKING, Sequence

from .fixedpoints import (FixedPointData, Partition, all_partitions, check_partition,
                          partition_sort_key, partition_str, partitions_at_most,
                          relation_coefficients)
from .text import join_terms, power, term

if TYPE_CHECKING:
    from .series import TruncSeries
    from .sparsepoly import SparsePoly


def cpn_fixed_points(n: int, weights: Sequence[int]) -> FixedPointData:
    """Standard circle action on complex projective n-space.

    At the 0th fixed point the weights are w_1..w_n; at the j-th they are
    -w_j together with w_k - w_j for k != j.  The w_i must be distinct and
    nonzero so that all fixed points are isolated.  The index is n+1.
    """
    ws = [int(w) for w in weights]
    if len(ws) != n:
        raise ValueError(f"need exactly {n} weights")
    if 0 in ws or len(set(ws)) != n:
        raise ValueError("weights must be distinct and nonzero")
    points = [tuple(ws)]
    labels = ["P0"]
    for j in range(n):
        points.append(tuple(-ws[j] if k == j else ws[k] - ws[j]
                            for k in range(n)))
        labels.append(f"P{j + 1}")
    return FixedPointData(n, points, labels, asserted_index=n + 1)


def product_fixed_points(a: FixedPointData, b: FixedPointData) -> FixedPointData:
    """Product manifold: points multiply, weight vectors concatenate."""
    points, labels = [], []
    for la, pa in zip(a.labels, a.points):
        for lb, pb in zip(b.labels, b.points):
            points.append(pa + pb)
            labels.append(f"{la}x{lb}")
    index = None
    if a.asserted_index is not None and b.asserted_index is not None:
        index = gcd(a.asserted_index, b.asserted_index)
    return FixedPointData(a.n + b.n, points, labels, asserted_index=index)


def random_product_of_projective_spaces(rng: random.Random, n: int) -> FixedPointData:
    """A random product of projective spaces of total half-dimension n,
    each factor with random distinct nonzero weights in [-9, 9].

    These are honest manifold models: properties such as the vanishing of
    q_I in low degree are theorems about manifolds, not about arbitrary
    weight tables, so random tests draw from this family.
    """
    parts = []
    remaining = n
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    pool = [w for w in range(-9, 10) if w]
    fpd = None
    for part in parts:
        ws = rng.sample(pool, part)
        factor = cpn_fixed_points(part, ws)
        fpd = factor if fpd is None else product_fixed_points(fpd, factor)
    return fpd


# -- pointwise localization sums ----------------------------------------------------


def chern_number(fpd: FixedPointData, lam: Sequence[int]) -> Fraction:
    """C_lambda by localization; must come out an integer."""
    from .symfunc import elementary_values

    lam = check_partition(lam)
    if sum(lam) != fpd.n:
        raise ValueError("Chern numbers pair partitions of weight n "
                         f"(got {partition_str(lam)} for n={fpd.n})")
    total = Fraction(0)
    for weights in fpd.points:
        elem = elementary_values(weights)
        num = Fraction(1)
        for part in lam:
            num *= elem[part]
        total += num / prod(weights)
    if total.denominator != 1:
        raise ArithmeticError(f"localization integrality violated: "
                              f"C_{partition_str(lam)} = {total} is not an integer "
                              "(weight data is not a manifold)")
    return total


def chi_y_from_counts(fpd: FixedPointData) -> SparsePoly:
    """The chi_y genus from negative-weight counts: sum over P of (-y)^#neg."""
    from .sparsepoly import SparsePoly

    terms: dict[tuple, Fraction] = {}
    for weights in fpd.points:
        j = sum(1 for w in weights if w < 0)
        key = (j,)
        terms[key] = terms.get(key, Fraction(0)) + (-1) ** j
    return SparsePoly(("y",), terms)


def relation_coefficient(fpd: FixedPointData, I: Sequence[int]) -> Fraction:
    """q_I = sum over P of m_I(weights) / product of weights."""
    return relation_coefficients(fpd, [I])[0]


# -- relations among Eisenstein series ------------------------------------------------


class Relation:
    """sum_I q_I * G_{I,N} = 0 over partitions I of k with at most n parts."""

    __slots__ = ("n", "k", "N", "terms", "provenance")

    def __init__(self, n: int, k: int, N: int,
                 terms: Sequence[tuple[Partition, Fraction]],
                 provenance: str) -> None:
        self.n = n
        self.k = k
        self.N = N
        self.terms = [(check_partition(I), Fraction(c)) for I, c in terms]
        self.terms.sort(key=lambda t: partition_sort_key(t[0]))
        self.provenance = provenance

    def primitive(self) -> "Relation":
        """Divide out the rational content and fix the sign of the first
        stored coefficient positive; no-op directions are normalized too."""
        nums = [c.numerator for _, c in self.terms if c]
        dens = [c.denominator for _, c in self.terms if c]
        if not nums:
            return Relation(self.n, self.k, self.N, self.terms,
                            self.provenance + "; primitive")
        content = Fraction(gcd(*nums), lcm(*dens))
        first = next(c for _, c in self.terms if c)
        if first < 0:
            content = -content
        terms = [(I, c / content) for I, c in self.terms]
        return Relation(self.n, self.k, self.N, terms,
                        self.provenance + "; primitive")

    def render(self) -> str:
        """Display style '4*G[1,3]*G[3,3] + G[2,3]^2 + 5*G[4,3] = 0':
        longer products first, zero terms dropped."""
        order = sorted(self.terms,
                       key=lambda t: (-len(t[0]), tuple(-x for x in t[0])))
        pieces = []
        for I, c in order:
            if not c:
                continue
            factors = []
            for part in sorted(set(I)):
                factors.append(power(f"G[{part},{self.N}]", I.count(part)))
            pieces.append(term(str(c), "*".join(factors)))
        return join_terms(pieces) + " = 0"

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "N": self.N,
                "terms": [{"partition": list(I), "coefficient": str(c)}
                          for I, c in self.terms],
                "provenance": self.provenance}

    def __repr__(self) -> str:
        return f"<Relation n={self.n} k={self.k} N={self.N}: {self.render()}>"


def build_relations(fpd: FixedPointData, N: int, ks: Sequence[int]) -> list[Relation]:
    """The raw relations sum_I q_I G_{I,N} = 0 over partitions I of k, for
    each k in ks, with every q_I from one `relation_coefficients` table.

    For k > n a relation holds when N divides the index of the underlying
    manifold; the weights alone cannot certify that, so a level that the
    data refutes is refused (`FixedPointData.check_level`) and one it
    admits is recorded as an assumption.  For k = n the sum is the level-N
    genus itself, which N | index does not make vanish: it does on CP^n,
    but not on the quadric Q^3 at N = 3.
    """
    if N < 2:
        raise ValueError("Eisenstein level must be at least 2")
    fpd.check_level(N)
    for k in ks:
        if k < fpd.n:
            raise ValueError(f"below localization degree: k={k} < n={fpd.n}")
    groups = [partitions_at_most(k, fpd.n) for k in ks]
    coefficients = iter(relation_coefficients(fpd, [I for group in groups for I in group]))
    if fpd.asserted_index is not None:
        assumption = f"index {fpd.asserted_index} divisible by N={N}"
    else:
        assumption = f"caller asserts N={N} divides the index"
    provenance = f"{fpd.describe()}; {assumption}"
    return [Relation(fpd.n, k, N, [(I, next(coefficients)) for I in group], provenance)
            for k, group in zip(ks, groups)]


def build_relation(fpd: FixedPointData, N: int, k: int) -> Relation:
    """The raw relation sum_I q_I G_{I,N} = 0 for partitions I of k."""
    return build_relations(fpd, N, [k])[0]


@lru_cache(maxsize=None)
def _packed_product(I: Partition, N: int, q_precision: int) -> TruncSeries:
    """G_{I,N} by `series.kronecker_product`, for I nonempty and sorted
    non-increasing, through q^(q_precision-1).

    Memoized on (I, N, precision), and built as G_{I without its last part}
    times G_{last part}, so partitions that share a prefix share its product.
    """
    from .modular import eisenstein_qexp
    from .series import kronecker_product

    g = eisenstein_qexp(I[-1], N, q_precision)
    if len(I) == 1:
        return g
    return kronecker_product(_packed_product(I[:-1], N, q_precision), g)


def _relation_sum(terms, N: int, q_precision: int) -> TruncSeries:
    """sum c * G_{I,N} over (I, c) in terms, through q^(q_precision-1): the
    level-N zero series when every c is 0."""
    from .cyclotomic import euler_phi
    from .series import TruncSeries

    terms = [(c, _packed_product(I, N, q_precision)) for I, c in terms if c]
    if not terms:
        return TruncSeries._normalized("q", N, q_precision,
                                       [0] * (q_precision * euler_phi(N)), 1)
    return TruncSeries.combination(terms)


def eisenstein_product(I: Sequence[int], N: int, q_precision: int) -> TruncSeries:
    """G_{I,N} = product of G_{i,N} over the parts of I, a nonempty
    partition, through q^(q_precision-1)."""
    return _packed_product(tuple(sorted(I, reverse=True)), N, q_precision)


def verify_relation(rel: Relation, q_precision: int) -> TruncSeries:
    """The residual sum_I q_I G_{I,N} of the relation through
    q^(q_precision-1), zero iff the relation holds to that order; a failed
    check reads its first nonzero coefficient at residual.valuation()."""
    return _relation_sum(rel.terms, rel.N, q_precision)


def genus_qexp(fpd: FixedPointData, N: int, q_precision: int) -> TruncSeries:
    """The level-N elliptic genus as a q-series: sum_{|I| = n} q_I G_{I,N},
    with the products G_I by `series.kronecker_product`."""
    if N < 2:
        raise ValueError("the level-N genus needs N >= 2")
    partitions = partitions_at_most(fpd.n, fpd.n)
    return _relation_sum(zip(partitions, relation_coefficients(fpd, partitions)),
                         N, q_precision)


def genus_via_chern(fpd: FixedPointData, N: int, q_precision: int) -> TruncSeries:
    """Independent route to the same genus: sum of f_lambda * C_lambda by
    `symfunc.genus_value`, so it shares no product with `genus_qexp`."""
    from .modular import genus_coefficients
    from .symfunc import genus_value

    chern = {lam: chern_number(fpd, lam) for lam in all_partitions(fpd.n)}
    return genus_value(genus_coefficients(N, fpd.n, q_precision), chern, fpd.n)


# -- equivariant indices and the t -> 1 limit ------------------------------------------


def _localized_term(weights: tuple[int, ...], terms, order: int) -> TruncSeries:
    """s^n num(t) / prod_j (1 - t^-w_j) at t = exp(s), through s^(order-1),
    for num(t) = sum c t^a over the (a, c) in terms, a rational.  The s^j
    coefficient of num(exp(s)) is the power sum sum c a^j / j!, taken on
    integers: with a = a'/A and c = c'/C over common denominators, it is
    sum c' a'^j A^(order-1-j) (order-1)!/j! over C A^(order-1) (order-1)!."""
    from .series import TruncSeries

    a_den = lcm(*(a.denominator for a, _ in terms))
    c_den = lcm(*(c.denominator for _, c in terms))
    pairs = [(a.numerator * (a_den // a.denominator), c.numerator * (c_den // c.denominator))
             for a, c in terms]
    top = factorial(order - 1)
    num = TruncSeries._normalized(
        "s", 1, order, [sum(c * a ** j for a, c in pairs) * a_den ** (order - 1 - j)
                        * (top // factorial(j)) for j in range(order)],
        c_den * a_den ** (order - 1) * top)
    return num * _unit_factor(weights, order)


@lru_cache(maxsize=256)
def _unit_factor(weights: tuple[int, ...], order: int) -> TruncSeries:
    """s^n / prod_j (1 - exp(-w_j s)), through s^(order-1): the product of the
    Todd series x/(1 - e^-x) at x = w_j s over w_j, which does not depend on
    the numerator, so each point builds it once for all its terms.  With the
    Todd coefficients t_m = t'_m / T over one denominator, the factor of w
    is the integer row t'_m w^m over T w."""
    from .series import TruncSeries, todd_coefficient

    todd = [todd_coefficient(m) for m in range(order)]
    den = lcm(*(t.denominator for t in todd))
    nums = [t.numerator * (den // t.denominator) for t in todd]
    return prod(TruncSeries._normalized("s", 1, order,
                                        [x * w ** m for m, x in enumerate(nums)], den * w)
                for w in weights)


def equivariant_index_limit(fpd: FixedPointData, numerators) -> Fraction:
    """The t -> 1 limit of sum_P numerator_P(t) / prod_j (1 - t^-w_j(P)).

    numerators: one list per fixed point of (exponent, coefficient) pairs,
    exponents rational (t^a terms).  With t = exp(s) the sum is kept
    multiplied by s^n: its s^n coefficient is the index, and a nonzero
    coefficient of s^0..s^(n-1) is a pole at t = 1 and means the input was
    not the fixed-point data of a global index.
    """
    if len(numerators) != len(fpd.points):
        raise ValueError("need one numerator per fixed point")
    from .series import TruncSeries

    n = fpd.n
    total = TruncSeries.combination((1, _localized_term(weights, terms, n + 1))
                                    for weights, terms in zip(fpd.points, numerators))
    if total.valuation() < n:
        raise ArithmeticError("pole at t=1: not a global index")
    return total.coeff(n)


def hilbert_polynomial(fpd: FixedPointData, N: int, m: int) -> SparsePoly:
    """H_m(x) = ind(L^x tensor the m-th exterior power of T*), a polynomial
    of degree <= n read off the fixed-point sum.

    N is the (asserted) index.  At P the lift of L^x contributes
    t^(-x W(P)/N), W(P) the weight sum, and the exterior power contributes
    e_m(t^-w_1, ..., t^-w_n).  At t = exp(s) the twist is
    sum_i (-W(P)/N)^i x^i s^i / i!, so in the sum times s^n the coefficient
    of x^i s^(i+j) is sum_P (-W(P)/N)^i / i! times the s^j coefficient of
    P's localized e_m term.  H_m takes its x^i coefficient from i + j = n;
    a nonzero coefficient with i + j < n is a pole at t = 1.
    """
    if not 0 <= m <= fpd.n:
        raise ValueError("exterior power degree out of range")
    from .series import TruncSeries
    from .sparsepoly import SparsePoly

    n = fpd.n
    terms = []   # (-W(P), P's localized e_m term)
    for weights in fpd.points:
        subsets = [(-sum(subset), 1) for subset in combinations(weights, m)]
        terms.append((-sum(weights), _localized_term(weights, subsets, n + 1)))
    # x^i: s^(i+j) at key j, times N^i i!
    by_power = [TruncSeries.combination([(rate ** i, term) for rate, term in terms])
                for i in range(n + 1)]
    if any(total.valuation() < n - i for i, total in enumerate(by_power)):
        raise ArithmeticError("pole at t=1: not a global index")
    return SparsePoly(("x",), {(i,): total.coeff(n - i) / (N ** i * factorial(i))
                               for i, total in enumerate(by_power)})


def cpn_hilbert_closed_form(n: int, m: int) -> SparsePoly:
    """H_m(x) for projective n-space:
    (-1)^n/(m!(n-m)!) * (x-1)...(x-(n-m)) * (x+1)...(x+m)."""
    from .sparsepoly import SparsePoly

    poly = SparsePoly.constant(("x",), Fraction((-1) ** n,
                                                factorial(m) * factorial(n - m)))
    for i in range(1, n - m + 1):
        poly = poly * SparsePoly(("x",), {(1,): 1, (0,): -i})
    for i in range(1, m + 1):
        poly = poly * SparsePoly(("x",), {(1,): 1, (0,): i})
    return poly


# -- chi_y divisibility and the general projective-space relation ----------------------


def divides_chi_y(chi_y: SparsePoly, k0: int) -> dict:
    """Divide chi_y by 1 + (-y) + ... + (-y)^(k0-1), exactly or not at all.
    A divisor of higher degree than chi_y is never built: the quotient is
    zero and chi_y is the remainder, as the division would find."""
    if k0 < 1:
        raise ValueError("index must be positive")
    from .sparsepoly import SparsePoly

    chi_y = chi_y.with_vars(("y",))
    if k0 - 1 > chi_y.degree():
        quotient, remainder = SparsePoly.zero(("y",)), chi_y
    else:
        divisor = SparsePoly(("y",), {(j,): (-1) ** j for j in range(k0)})
        quotient, remainder = chi_y.divmod_by(divisor)
    if remainder:
        return {"divisible": False, "remainder": str(remainder)}
    return {"divisible": True, "quotient": quotient}


def general_relation_cpn(n: int, N: int, ks: Sequence[int], q_precision: int) -> list[dict]:
    """The closed-form projective-space relation, checked as q-series: one
    report per k in ks, in the order of ks.

    LHS: (-1)^(n+k+1) * [z^k] S(z)^n with S(z) = sum_j G_{j,N} z^j.
    RHS: sum_{l=0}^{n-1} binom(k-l-1, n-l-1) G_{k-l,N} [z^l] S(z)^n.

    The sum over j starts at 0 with the convention G_{0,N} = 1.  The
    convention is fixed: it is never chosen by which convention verifies,
    and the report names it.  S(z) is held as its list of q-series
    coefficients G_0..G_K, K = max(ks), from `modular.genus_coefficients`
    (a_0 = 1 and a_k = G_{k,N}); n - 1 list convolutions of
    `TruncSeries` products over Q(zeta_N), starting from S(z), give the
    coefficients of z^0..z^K in S(z)^n, each trusted through
    q^(q_precision-1).  They do not depend on k: one S(z)^n serves all of
    ks.  Each [z^j] of S(z)^(r+1) and each right-hand side is one
    `TruncSeries.combination`.  A failed report names the first exponent
    where the sides differ, with both coefficients, then both sides.
    """
    if N < 2:
        raise ValueError("Eisenstein level must be at least 2")
    if (n + 1) % N:
        raise ValueError(f"N={N} does not divide n+1={n + 1}")
    if not ks or min(ks) < n:
        raise ValueError("relation degrees k must be given, each at least n")
    from .modular import genus_coefficients
    from .series import TruncSeries

    top = max(ks)
    G = genus_coefficients(N, top, q_precision)
    # G_0 = 1 and [z^0] S(z)^r = 1, so a term with either factor of index 0
    # takes no product: the terms i = 0 and i = j of [z^j] S(z)^(r+1) are
    # power[j] + G[j], and the term l = 0 of the RHS is binom(k-1, n-1) G_k
    power = G                            # S(z)^1
    for _ in range(n - 1):
        power = G[:1] + [TruncSeries.combination([(1, power[j]), (1, G[j])] + [
                             (1, power[i] * G[j - i]) for i in range(1, j)])
                         for j in range(1, top + 1)]
    reports = []
    for k in ks:
        lhs = power[k] * Fraction((-1) ** (n + k + 1))
        rhs = TruncSeries.combination([(comb(k - 1, n - 1), G[k])] + [
            (comb(k - ell - 1, n - ell - 1), G[k - ell] * power[ell]) for ell in range(1, n)])
        difference = lhs - rhs
        report = {"n": n, "N": N, "k": k, "q_precision": q_precision,
                  "ok": not difference, "zero_index_convention": "G_0 = 1"}
        if difference:
            e = difference.valuation()
            report.update(first_mismatch={"exponent": e, "lhs": str(lhs.coeff(e)),
                                          "rhs": str(rhs.coeff(e))},
                          lhs=str(lhs), rhs=str(rhs))
        reports.append(report)
    return reports
