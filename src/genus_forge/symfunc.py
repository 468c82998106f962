"""Multiplicative genera via symmetric functions.

A genus is encoded by a power series Q(x) = a_0 + a_1*x + a_2*x^2 + ...
For a manifold of complex dimension n one expands Q(x_1)...Q(x_n), keeps
the part of weight n, and rewrites it in the elementary symmetric
polynomials sigma_1, ..., sigma_n of the x_i.  Substituting Chern classes
for the sigma_j and integrating turns the weight-n part into the number

    sum over partitions lambda of n  of  f_lambda * C_lambda,

where C_lambda are the Chern numbers and the f_lambda are universal
polynomials in the a_k.  Everything here is exact: coefficients may be
rationals, polynomials (e.g. in y for the Hirzebruch chi_y genus), or
truncated q-series.

The expansion never touches individual monomials of the n-fold product:
the coefficient of the monomial symmetric function m_I in Q(x_1)...Q(x_n)
is a_I = a_0^(n-len(I)) * a_{I_1} * ... * a_{I_l}, and m_I is converted to
the elementary basis by triangular elimination over partitions, in the
monomial basis, with no polynomial in x_1..x_n built.  So f_lambda is read
off those rows, as the sum over partitions I of n of [e_lambda] m_I * a_I,
with each a_I formed once in the coefficients' own domain.

The partitions of k with at most n parts are enumerated once per (k, n)
and copied for each caller, and `check_partition` checks a partition with
one sort.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

from .sparsepoly import SparsePoly

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """parts as a partition: a tuple of positive, non-increasing integers.
    One sort decides both; a part <= 0 is reported before an increase."""
    p = tuple(map(int, parts))
    descending = tuple(sorted(p, reverse=True))
    if descending and descending[-1] <= 0:
        raise ValueError("partition parts must be positive")
    if p != descending:
        raise ValueError("partition parts must be non-increasing")
    return p


def partition_sort_key(parts: Sequence[int]):
    """Graded reverse-lexicographic: by length, then reverse-lex on parts."""
    return (len(parts), tuple(-x for x in parts))


def partitions_at_most(k: int, n: int) -> list[Partition]:
    """All partitions of k with at most n parts, in display order:
    [6], [5,1], [4,2], [3,3], [4,1,1], [3,2,1], [2,2,2] for (6, 3).
    A fresh list each call, copied from one enumeration per (k, n)."""
    return list(_partitions_at_most(k, n))


@lru_cache(maxsize=None)
def _partitions_at_most(k: int, n: int) -> tuple[Partition, ...]:
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == n:
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(k, k, [])
    return tuple(sorted(out, key=partition_sort_key))


def all_partitions(k: int) -> list[Partition]:
    return partitions_at_most(k, max(k, 1))


def partition_str(parts: Sequence[int]) -> str:
    return "[" + ",".join(str(x) for x in parts) + "]"


def monomial_sym_eval(partitions: Sequence[Sequence[int]], values: Sequence) -> list:
    """m_I at concrete values, for each I in partitions, from one table.

    The table holds m_R(v_1..v_k) for every sub-multiset R of the
    partitions and grows by recursion on the last value v_k:

        m_R(v_1..v_k) = m_R(v_1..v_{k-1})                 [0 if |R| = k]
                      + sum over distinct parts e of R of
                            v_k^e * m_{R minus e}(v_1..v_{k-1}),

    updated in place with the longer R first so that R minus e still holds
    its value at k - 1.  Partitions that share sub-multisets share their
    entries, and v_k^e is formed once per k and e.  This is the m_I of the
    divided-difference route, whose values are the roots as `SparsePoly`;
    any ring with + and * works, and an integer result comes back as a
    `Fraction`.
    """
    parts = [check_partition(I) if I else () for I in partitions]
    n = len(values)
    for I in parts:
        if n < len(I):
            raise ValueError("monomial symmetric function needs at least "
                             f"{len(I)} values, got {n}")
    # R -> [(e, R minus e) over distinct parts e]; `last` is the last k at
    # which R can still grow into some requested I, which needs len(I) - len(R)
    # more values
    removals: dict = {}
    last = {I: n for I in parts}
    longest_first = []
    for length in range(max(map(len, parts), default=0), 0, -1):
        level = [R for R in last if len(R) == length]
        longest_first += level
        for R in level:
            removals[R] = [(e, R[:i] + R[i + 1:]) for i, e in enumerate(R)
                           if not i or R[i - 1] != e]
            for _, rest in removals[R]:
                last[rest] = max(last.get(rest, 0), last[R] - 1)
    table: dict = dict.fromkeys(last, 0)
    table[()] = 1
    for k, v in enumerate(values, start=1):
        active = [R for R in longest_first if len(R) <= k <= last[R]]
        top = max((R[0] for R in active), default=0)
        powers = [1, v]
        for _ in range(top - 1):
            powers.append(powers[-1] * v)
        for R in active:
            total = table[R]
            for e, rest in removals[R]:
                total = total + (powers[e] * table[rest] if rest else powers[e])
            table[R] = total
    return [Fraction(table[I]) if isinstance(table[I], int) else table[I]
            for I in parts]


def monomial_sym_poly(I: Sequence[int], variables: Sequence[str]) -> SparsePoly:
    """m_I as an explicit polynomial in the given variables."""
    I = check_partition(I) if I else ()
    vs = tuple(variables)
    if len(vs) < len(I):
        raise ValueError("not enough variables for the partition")
    padded = tuple(I) + (0,) * (len(vs) - len(I))
    return SparsePoly(vs, dict.fromkeys(set(permutations(padded)), Fraction(1)))


def elementary_sym_poly(m: int, variables: Sequence[str]) -> SparsePoly:
    vs = tuple(variables)
    if not 0 <= m <= len(vs):
        raise ValueError("elementary symmetric index out of range")
    terms: dict[tuple[int, ...], Fraction] = {}
    for subset in combinations(range(len(vs)), m):
        exp = [0] * len(vs)
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = Fraction(1)
    return SparsePoly(vs, terms)


def elementary_values(values: Sequence) -> list:
    """e_0, e_1, ..., e_n at concrete values, by running product of (1 + v*t)."""
    elem = [Fraction(1)]
    for v in values:
        nxt = [elem[0]]
        for j in range(1, len(elem)):
            nxt.append(elem[j] + v * elem[j - 1])
        nxt.append(v * elem[-1])
        elem = nxt
    return elem


@lru_cache(maxsize=None)
def _zero_one_matrices(rows: Partition, cols: Partition) -> int:
    """How many 0-1 matrices have these row and column sums, [m_cols] e_rows:
    the first row's ones go in any rows[0] columns, the rest recurses."""
    if not rows:
        return int(not cols)
    left = (sorted(filter(None, (x - (j in chosen) for j, x in enumerate(cols))), reverse=True)
            for chosen in combinations(range(len(cols)), rows[0]))
    return sum(_zero_one_matrices(rows[1:], tuple(rest)) for rest in left)


@lru_cache(maxsize=None)
def monomial_to_elementary(I: Partition, n: int) -> SparsePoly:
    """The unique polynomial expressing m_I(x_1..x_n) in e_1..e_n.

    Triangular elimination in the monomial basis, on a map nu -> [m_nu] of
    the remainder, from m_I: the largest alpha left (tuple order refines
    dominance) tops e_{alpha'}, alpha' the conjugate, whose other m_nu (at
    most n parts, as m_nu vanishes beyond that) are dominated by alpha.
    Subtracting c * e_{alpha'} must clear alpha; the loop ends when the
    remainder is zero, which proves the identity term by term.
    """
    I = check_partition(I) if I else ()
    if n < len(I):
        raise ValueError("need at least as many variables as parts")
    candidates = partitions_at_most(sum(I), n)
    remainder, terms = {I: 1}, {}
    while remainder:
        alpha, c = max(remainder.items())
        conj = tuple(sum(1 for x in alpha if x >= j) for j in range(1, max(alpha, default=0) + 1))
        for nu in candidates:
            remainder[nu] = remainder.get(nu, 0) - c * _zero_one_matrices(conj, nu)
        remainder = {nu: r for nu, r in remainder.items() if r}
        if alpha in remainder:
            raise ArithmeticError(f"elimination left m_{partition_str(alpha)}")
        terms[tuple(conj.count(m) for m in range(1, n + 1))] = c
    return SparsePoly(tuple(f"e{i}" for i in range(1, n + 1)), terms)


# -- genera from the coefficients a_0..a_m of Q(x) ----------------------------------


def f_lambda_values(a: Sequence, n: int) -> dict[Partition, object]:
    """f_lambda for all partitions lambda of n, at the coefficients a_0..a_m
    of Q(x), m >= n, in any exact domain: the sum over partitions I of n of

        [e_lambda] m_I * a_0^(n - len(I)) * a_{I_1} * ... * a_{I_l},

    with [e_lambda] m_I read from `monomial_to_elementary(I, n)`.  Each
    product of a's extends its prefix's product, formed once, and is added
    into every f_lambda it reaches.  Every lambda is reached, as the
    m_I -> e_lambda table is unitriangular.  Each f_lambda is summed as
    one linear combination, by `_combine`.
    """
    if len(a) <= n:
        raise ValueError(f"genus series stops at a_{len(a) - 1}, need a_{n}")
    partitions = all_partitions(n)
    terms: dict[Partition, list] = {}
    products: dict[tuple[int, ...], object] = {}  # by factor sequence
    for I in partitions:
        a_I, factors = None, (0,) * (n - len(I)) + I[::-1]
        for m, k in enumerate(factors, 1):
            if factors[:m] not in products:
                products[factors[:m]] = a[k] if a_I is None else a_I * a[k]
            a_I = products[factors[:m]]
        for e_exp, c in monomial_to_elementary(I, n).terms.items():
            lam = tuple(j for j in range(n, 0, -1) for _ in range(e_exp[j - 1]))
            terms.setdefault(lam, []).append((c, a_I))
    return {lam: _combine(terms[lam]) for lam in partitions}


def _combine(terms):
    """sum c * x over the (c, x) in terms, nonempty: by the domain's own
    `combination` where it has one (TruncSeries, on integer rows over one
    denominator), else term by term."""
    combination = getattr(type(terms[0][1]), "combination", None)
    if combination is not None:
        return combination(terms)
    (c0, x0), rest = terms[0], terms[1:]
    return sum((c * x for c, x in rest), c0 * x0)


def f_lambda_symbolic(n: int) -> dict[Partition, SparsePoly]:
    """f_lambda for all partitions of n, as polynomials in a_0..a_n."""
    avars = tuple(f"a{k}" for k in range(n + 1))
    return f_lambda_values([SparsePoly.variable(v, avars) for v in avars], n)


def genus_polynomials(a: Sequence, n: int) -> list[SparsePoly]:
    """Q_1..Q_n with the a_k evaluated at the coefficients a_0..a_m; Q_k applied
    to sigma_1..sigma_k reproduces the weight-k part of Q(x_1)...Q(x_n).

    Q_k = a_0^(n-k) * sum over partitions lambda of k of f_lambda * y^lambda,
    with f_lambda taken at k: for |I| = k <= n, m_I has the same expansion
    in e_1..e_k whatever the number of variables.  The coefficient domain
    must be polynomial (Fraction or SparsePoly); for q-series coefficients
    use f_lambda_values/genus_value instead.
    """
    if len(a) <= n:
        raise ValueError(f"genus series stops at a_{len(a) - 1}, need a_{n}")
    extra = tuple(dict.fromkeys(v for c in a if isinstance(c, SparsePoly)
                                for v in c.vars))
    allvars = extra + tuple(f"y{j}" for j in range(1, n + 1))
    lifted = [c.with_vars(allvars) if isinstance(c, SparsePoly)
              else SparsePoly.constant(allvars, c) for c in a[: n + 1]]
    out = []
    for k in range(1, n + 1):
        qk = SparsePoly.zero(allvars)
        for lam, f in f_lambda_values(lifted, k).items():
            y_exp = (0,) * len(extra) + tuple(lam.count(j) for j in range(1, n + 1))
            qk = qk + f * SparsePoly.monomial(allvars, y_exp)
        out.append(lifted[0] ** (n - k) * qk)
    return out


def genus_value(a: Sequence, chern: Mapping[Partition, int], n: int):
    """sum of f_lambda * C_lambda over partitions lambda of n, at the
    coefficients a_0..a_m, as one linear combination, by `_combine`."""
    flam = f_lambda_values(a, n)
    for lam in flam:
        if lam not in chern:
            raise ValueError(f"missing Chern number for partition {partition_str(lam)}")
    return _combine([(chern[lam], f) for lam, f in flam.items()])


def chi_y_power_series(k_max: int) -> list[SparsePoly]:
    """a_0..a_{k_max} of the chi_y genus: Q(x) = x(1 + y e^{-x})/(1 - e^{-x})
    is the Todd series x/(1 - e^{-x}) plus y x/(e^x - 1), so
    a_k = (-1)^k B_k/k! + y * B_k/k!."""
    from .series import bernoulli, todd_coefficient  # series pulls in no symfunc
    from math import factorial

    return [SparsePoly(("y",), {(0,): todd_coefficient(k),
                                (1,): bernoulli(k) / factorial(k)})
            for k in range(k_max + 1)]
