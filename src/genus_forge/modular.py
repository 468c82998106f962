"""Eisenstein series of level N and the elliptic-genus power series.

Two independent computations live here.  G_{k,N} comes straight from its
Fourier expansion: a divisor sum over Q(zeta_N), sieved into the integer
rows of a `TruncSeries` under one `lru_cache`, which every route that
reads G_{k,N} shares.  The coefficients a_k(q) of the normalized power
series

    Q_N(x) = x * (1 - e^{-x} z) / ((1 - e^{-x})(1 - z))
             * prod_{r>=1} (1 - e^{-x} z q^r)(1 - e^x z^{-1} q^r)(1 - q^r)^2
                         / ((1 - e^{-x} q^r)(1 - e^x q^r)(1 - z q^r)(1 - z^{-1} q^r))

(z = zeta_N) come from expanding that product on a table of integers, as
a plain list of q-series a_0, a_1, ....  The identity a_k = G_{k,N} is
checked, never assumed: `verify_lemma_eisenstein` compares the two routes
series by series, and reads the first mismatch of a pair that differs
off the valuation of their difference.

Precision T for a q-series always means: coefficients of q^0 .. q^{T-1}
are trusted.  The simple zero of (1 - e^{-x}) at x = 0 is cancelled
exactly by writing 1 - e^{-x} = x * u(x) with u(0) = 1 and inverting u.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .cyclotomic import CyclotomicNumber, _reduce, euler_phi
from .series import TruncSeries, bernoulli


@lru_cache(maxsize=None)
def eisenstein_qexp(k: int, N: int, precision: int) -> TruncSeries:
    """G_{k,N} as a q-series over Q(zeta_N), trusted through q^(precision-1).

    Constant term (1+z)/(2(1-z)) for k = 1 and B_k/k! for k > 1; for n >= 1
    the q^n coefficient is -sum_{d|n} (n/d)^(k-1) (z^-d + (-1)^k z^d)/(k-1)!.
    The divisor sums come from a sieve: for each d and each multiple
    n = d*m, m^(k-1) goes into the residue slots -d and d mod N of row n,
    and each row is reduced mod Phi_N once.  The k = 1 constant is an
    integer row too: (1-z) * sum_{j<N} j z^j = -N, so
    (1+z)/(2(1-z)) = -((N-1) + sum_{0<j<N} (2j-1) z^j) / (2N).  No field
    product is taken.
    """
    if k < 1:
        raise ValueError("Eisenstein weight must be positive")
    if N < 2:
        raise ValueError("Eisenstein level must be at least 2")
    if precision < 1:
        raise ValueError("q-precision must be positive")
    if k == 1:
        row = [1 - N] + [1 - 2 * j for j in range(1, N)]
        const = CyclotomicNumber._normalized(N, _reduce(N, row), 2 * N)
    else:
        const = CyclotomicNumber.from_rational(N, bernoulli(k) / factorial(k))
    scale = factorial(k - 1)
    denom = lcm(scale, const.den)
    rows = [[0] * N for _ in range(precision)]
    sign = -1 if k % 2 else 1
    for d in range(1, precision):
        minus, plus = -d % N, d % N
        for m in range(1, (precision - 1) // d + 1):
            row, t = rows[d * m], m ** (k - 1)
            row[minus] += t
            row[plus] += sign * t
    entries = [x * (denom // const.den) for x in const.nums]
    unit = -(denom // scale)
    for row in rows[1:]:
        entries += [unit * e for e in _reduce(N, row)]
    return TruncSeries._normalized("q", N, precision, entries, denom)


def qn_expansion_via_product(N: int, x_order: int, q_precision: int) -> list[TruncSeries]:
    """a_0..a_(x_order-1), the x-coefficients of Q_N(x), each a q-series over
    Q(zeta_N): the defining infinite product expanded on one integer table.

    Column j holds j! times the x^j coefficient, each q^n of it as N ints
    in Z[z]/(z^N - 1): e^{+-x} has the integer coefficients (+-1)^j, a
    product of x-series is a binomial convolution, read from one table of
    C(j, i) per call, and z^{+-1} rotates the N slots.  As z z^{-1} = 1 and
    e^{-x} e^x = 1, the factors of each r < q_precision pair into
    quadratics 1 - m q^r + q^{2r}, applied in place: multiplied in for
    m = z e^{-x} + z^{-1} e^x and m = 2, divided out for m = e^x + e^{-x}
    and m = z + z^{-1}.  Each entry is then reduced mod Phi_N once and
    divided by j!; each q^n becomes an x-series, on integer rows,
    multiplied by `classical_x_series`, and the rows of those products are
    transposed into the q-series a_j.
    """
    if N < 2:
        raise ValueError("the level-N genus needs N >= 2")
    if x_order < 1 or q_precision < 1:
        raise ValueError("need at least one x-coefficient and q-coefficient")
    K, P = x_order, q_precision
    table = [[0] * (P * N) for _ in range(K)]
    table[0][0] = 1
    rotations = [(k - k % N + (k - 1) % N, k - k % N + (k + 1) % N) for k in range(P * N)]

    binomials = [[comb(j, i) for i in range(j + 1)] for j in range(K)]

    def exp_parts(vs, parity):
        """Per j, the sum of C(j, i) vs[i] over i <= j with j - i = parity
        mod 2: e^{+-x} vs is exp_parts(vs, 0) +- exp_parts(vs, 1)."""
        out = []
        for j, row in enumerate(binomials):
            acc = [0] * len(vs[0])
            for i in range(j - parity, -1, -2):
                c = row[i]
                acc = [a + c * b for a, b in zip(acc, vs[i])]
            out.append(acc)
        return out

    def numerator(vs):  # z e^{-x} + z^{-1} e^x
        return [[ev[u] - od[u] + ev[d] + od[d] for u, d in rotations[:len(ev)]]
                for ev, od in zip(exp_parts(vs, 0), exp_parts(vs, 1))]

    def twice(vs):
        return [[2 * a for a in v] for v in vs]

    def z_plus_inverse(vs):
        return [[v[u] + v[d] for u, d in rotations[:len(v)]] for v in vs]

    def quadratic(r, m, divide):
        """Multiply by 1 - m q^r + q^{2r} or divide: G[n] = F[n] + m G[n-r] - G[n-2r],
        r rows at a time, highest first (reading old rows) or lowest first (new)."""
        sign, shift = (1 if divide else -1), r * N
        starts = range(shift, P * N, shift)
        for a in (starts if divide else reversed(starts)):
            b = min(a + shift, P * N)
            terms = m([c[a - shift:b - shift] for c in table])
            for u, column in zip(terms, table):
                old = column[a - 2 * shift:b - 2 * shift] if a >= 2 * shift else [0] * (b - a)
                column[a:b] = [x + sign * (y - w) for x, y, w in zip(column[a:b], u, old)]

    for r in range(1, P):
        quadratic(r, numerator, False)
        quadratic(r, lambda vs: twice(exp_parts(vs, 0)), True)  # e^x + e^{-x}
        quadratic(r, twice, False)
        quadratic(r, z_plus_inverse, True)

    phi, scale = euler_phi(N), factorial(K - 1)
    prefactor = classical_x_series(N, K)
    over = [scale // factorial(j) for j in range(K)]
    rows = [prefactor * TruncSeries._normalized(
                "x", N, K, [e * over[j] for j, column in enumerate(table)
                            for e in _reduce(N, column[n * N:(n + 1) * N])], scale)
            for n in range(P)]
    denom = lcm(*(row.denom for row in rows))
    coeffs = [TruncSeries._normalized("q", N, P, [e * (denom // row.denom) for row in rows
                                                  for e in row.entries[j * phi:(j + 1) * phi]],
                                      denom)
              for j in range(K)]
    if coeffs[0] != 1:
        raise ArithmeticError("Q_N lost its normalization: a_0 != 1")
    return coeffs


def classical_x_series(N: int, x_order: int) -> TruncSeries:
    """x(1 - e^{-x} z)/((1 - e^{-x})(1 - z)): the q -> 0 limit of Q_N(x),
    an x-series with plain cyclotomic coefficients.  As
    (1 - e^{-x} z)/(1 - z) = 1 + z(1 - e^{-x})/(1 - z), it is
    x/(1 - e^{-x}) + x z/(1 - z), with no product of x-series."""
    if N < 2:
        raise ValueError("the level-N genus needs N >= 2")
    zeta = CyclotomicNumber.zeta(N)
    # x/(1 - e^{-x}) = 1/u is inverted, not read from `todd_coefficient`: the
    # G_{k,N} constants come from `bernoulli`, and criterion 3 compares this
    # route with theirs, so it must not share the Bernoulli numbers
    u = TruncSeries("x", {j: Fraction((-1) ** j, factorial(j + 1))
                          for j in range(x_order)}, cutoff=x_order)
    return u.inverse() + TruncSeries("x", {1: zeta * (1 - zeta).inverse()},
                                     cutoff=x_order)


def verify_lemma_eisenstein(N: int, k_max: int, q_precision: int) -> dict:
    """Compare both routes to a_k for k <= k_max; report the first mismatch.

    Returns {"ok": True, ...} on success, otherwise the offending weight and
    exponent together with both coefficient values rendered as strings.
    """
    qn = qn_expansion_via_product(N, k_max + 1, q_precision)
    report = {"level": N, "k_max": k_max, "q_precision": q_precision, "ok": True}
    for k in range(1, k_max + 1):
        lhs = qn[k]
        rhs = eisenstein_qexp(k, N, q_precision)
        difference = lhs - rhs
        if difference:
            n = difference.valuation()
            report.update(ok=False, weight=k, exponent=n,
                          product=str(lhs.coeff(n)), fourier=str(rhs.coeff(n)))
            return report
    return report


def genus_coefficients(N: int, n: int, q_precision: int) -> list[TruncSeries]:
    """a_0 = 1 and a_k = G_{k,N}, k <= n, of the level-N genus, over Q(zeta_N)."""
    one = TruncSeries("q", {0: CyclotomicNumber.from_rational(N, 1)}, cutoff=q_precision)
    return [one] + [eisenstein_qexp(k, N, q_precision) for k in range(1, n + 1)]


def f_lambda_table(N: int, n: int,
                   q_precision: int) -> dict[tuple[int, ...], TruncSeries]:
    """f_lambda for partitions of n at the level-N genus coefficients."""
    # local import: eisenstein and qn requests never load symfunc
    from .symfunc import f_lambda_values

    return f_lambda_values(genus_coefficients(N, n, q_precision), n)


# -- JSON shape shared with the command line ------------------------------------------


def series_to_json(series: TruncSeries) -> dict:
    """The series with its level, cutoff and each nonzero coefficient's text."""
    return {"variable": series.var, "level": series.level, "precision": series.cutoff,
            "coeffs": [[k, str(c)] for k, c in series.coeffs.items()]}

