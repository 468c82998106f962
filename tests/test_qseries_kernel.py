"""Differential tests of the fast q-series paths against plain references.

Each fast path of the localization route is compared here with
`TruncSeries` arithmetic, or with a divisor sum written out in this file:
the Kronecker product (`series.kronecker_product`), G_{k,N} from its sieve,
the memoized products G_I, and the residual string of a relation that
fails.  Products are compared at the kernel's cutoff (rebuilt with
`cutoff=P`), because
`TruncSeries.__mul__` trusts one more coefficient per zero leading term of
a factor.  The row product of `TruncSeries.__mul__` is compared in turn
with a per-coefficient double loop on `CyclotomicNumber` written out here,
and the CP^n relation check, which builds S(z)^n once for a whole range of
k, with the per-k rebuild of S(z)^n from S(z)^0.  A broken row product
must make the two genus routes disagree and the lemma's product route fail.
"""

import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge import localization, modular, series
from genus_forge.acceptance import (criterion_general_relation,
                                    criterion_lemma_eisenstein)
from genus_forge.cli import main
from genus_forge.cyclotomic import CyclotomicNumber, euler_phi
from genus_forge.localization import (FixedPointData, Relation, cpn_fixed_points,
                                      eisenstein_product, general_relation_cpn,
                                      genus_qexp, genus_via_chern,
                                      relation_coefficients, verify_relation)
from genus_forge.modular import eisenstein_qexp
from genus_forge.series import TruncSeries, bernoulli, kronecker_product
from genus_forge.fixedpoints import partitions_at_most

_LEVELS = (2, 3, 4, 5, 7, 9, 12)


def _divisor_sum(k, N, P):
    """G_{k,N} term by term: -sum_{d|n} (n/d)^(k-1) (z^-d + (-1)^k z^d)/(k-1)!."""
    z = [CyclotomicNumber.zeta(N, e) for e in range(N)]
    if k == 1:
        const = (1 + z[1]) * (2 * (1 - z[1])).inverse()
    else:
        const = CyclotomicNumber.from_rational(N, bernoulli(k) / factorial(k))
    coeffs = {0: const}
    for n in range(1, P):
        acc = CyclotomicNumber.from_rational(N, 0)
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc + (n // d) ** (k - 1) * (z[-d % N] + (-1) ** k * z[d % N])
        coeffs[n] = -acc * Fraction(1, factorial(k - 1))
    return TruncSeries("q", coeffs, cutoff=P)


@st.composite
def _kernel_operand(draw, N, P):
    """A sparse series over Q(zeta_N) at cutoff P: rational entries of any
    sign and size, and sometimes a zero constant term or the zero series."""
    entries = [0] * (P * euler_phi(N))
    start = draw(st.sampled_from((0, 0, 1, 2)))
    size = st.one_of(st.integers(-9, 9), st.integers(-2 ** 90, 2 ** 90))
    for _ in range(draw(st.integers(0, 8))):
        slot = draw(st.integers(0, len(entries) - 1))
        if slot >= start * euler_phi(N):
            entries[slot] = draw(size)
    return TruncSeries._normalized("q", N, P, entries, draw(st.integers(1, 40)))


@given(st.data(), st.sampled_from(_LEVELS), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_kernel_product_matches_truncseries(data, N, P):
    a, b = data.draw(_kernel_operand(N, P)), data.draw(_kernel_operand(N, P))
    fold = a * b
    want = TruncSeries(fold.var, fold.coeffs, cutoff=P)
    assert kronecker_product(a, b) == want


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(_LEVELS),
       st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_kernel_product_of_eisenstein_series(j, k, N, P):
    fold = eisenstein_qexp(j, N, P) * eisenstein_qexp(k, N, P)
    want = TruncSeries(fold.var, fold.coeffs, cutoff=P)
    assert kronecker_product(eisenstein_qexp(j, N, P), eisenstein_qexp(k, N, P)) == want


def test_kernel_product_dense_corner():
    # the largest qseries benchmark cell: level 7 at precision 60
    a, b = eisenstein_qexp(2, 7, 60), eisenstein_qexp(3, 7, 60)
    assert kronecker_product(a, b) == a * b


def test_kernel_truncates_at_its_precision():
    # G[5,3] and G[3,3] have no constant term: TruncSeries trusts q^50 too
    fold = eisenstein_qexp(5, 3, 50) * eisenstein_qexp(3, 3, 50)
    assert fold.cutoff == 51
    assert eisenstein_product((5, 3), 3, 50) == TruncSeries(fold.var, fold.coeffs, cutoff=50)


def test_kronecker_product_takes_canonical_series_of_one_level_and_cutoff():
    a = TruncSeries._normalized("q", 3, 2, [2, 4, 0, -6], 8)
    assert (a.entries, a.denom) == ((1, 2, 0, -3), 4)
    assert TruncSeries._normalized("q", 3, 2, [2, 0, 0, 0], -4).entries == (-1, 0, 0, 0)
    zero = TruncSeries._normalized("q", 3, 2, [0] * 4, 7)
    assert not zero and zero.denom == 1
    product = kronecker_product(a, zero)
    assert (product.level, product.cutoff, product.entries, product.denom) == \
        (3, 2, (0,) * 4, 1)
    for other in (TruncSeries._normalized("q", 3, 3, [1] * 6, 1),
                  TruncSeries._normalized("q", 4, 2, [1] * 4, 1),
                  TruncSeries._normalized("x", 3, 2, [1] * 4, 1)):
        with pytest.raises(ValueError):
            kronecker_product(a, other)
        with pytest.raises(ValueError):
            kronecker_product(other, a)
    with pytest.raises(AttributeError):
        a.denom = 1


def _fold(I, N, P):
    """G_I as a left fold of TruncSeries products, at precision P."""
    series = TruncSeries("q", {0: CyclotomicNumber.from_rational(N, 1)}, cutoff=P)
    for part in I:
        series = series * eisenstein_qexp(part, N, P)
    return TruncSeries(series.var, series.coeffs, cutoff=P)


@given(st.integers(1, 8), st.sampled_from(range(2, 13)), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_eisenstein_matches_the_divisor_sum(k, N, P):
    assert eisenstein_qexp(k, N, P) == _divisor_sum(k, N, P)


_partitions = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@given(_partitions, st.sampled_from(_LEVELS), st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_products_match_a_fold(I, N, P):
    # every prefix first, so the longer products can reuse the shorter ones
    for end in range(1, len(I) + 1):
        got = eisenstein_product(I[:end], N, P)
        assert got == _fold(I[:end], N, P)


def _relation(fpd, N, k):
    """The raw relation sum_I q_I G_{I,N} = 0 of degree k, built from its q_I
    at any level N: `build_relations` refuses a level that the data refutes."""
    parts = partitions_at_most(k, fpd.n)
    return Relation(fpd.n, k, N, list(zip(parts, relation_coefficients(fpd, parts))), "")


@given(st.integers(1, 3), st.sampled_from((2, 3, 4, 5, 7)), st.integers(0, 2),
       st.integers(1, 12), st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_failing_residual_matches_a_fold(n, N, extra, P, shift, rng):
    weights = rng.sample([w for w in range(-9, 10) if w], n)
    points = cpn_fixed_points(n, weights).points
    # built past the level rule: N need not divide n + 1, so the relation may fail
    rel = _relation(FixedPointData(n, points), N, n + extra)
    first = rel.terms[0][0]
    rel = Relation(rel.n, rel.k, rel.N,
                   [(I, c + shift if I == first else c) for I, c in rel.terms],
                   rel.provenance)
    want = TruncSeries("q", {}, cutoff=P)
    for I, c in rel.terms:
        if c:
            want = want + _fold(I, N, P) * c
    residual = verify_relation(rel, P)
    assert (not residual) == (not want)
    assert str(residual) == str(want)


def _reference_product(a, b):
    """a * b by the per-coefficient double loop on the field's own
    multiply and add, with the cutoff rule of `TruncSeries.__mul__`."""
    if not a.coeffs or not b.coeffs:
        return TruncSeries(a.var, {}, cutoff=min(a.cutoff, b.cutoff))
    cut = min(a.cutoff + min(b.coeffs), b.cutoff + min(a.coeffs))
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j < cut:
                out[i + j] = x * y if i + j not in out else out[i + j] + x * y
    return TruncSeries(a.var, out, cutoff=cut)


@st.composite
def _field_series(draw, N, cutoff):
    """A sparse q-series over Q(zeta_N): numerators of either sign, small or
    far wider than a machine word, over mixed denominators; sometimes with a
    zero constant term, and sometimes every entry the same extreme value,
    where a sum of products reaches the kernel's slot bound exactly once
    its q-degree has as many pairs as the sparser factor has keys."""
    phi = euler_phi(N)
    start = draw(st.sampled_from((0, 0, 0, 1, 3)))
    keys = draw(st.lists(st.integers(start, cutoff + 2), max_size=8, unique=True))
    if draw(st.booleans()):
        extreme = draw(st.sampled_from((1, -1))) * (2 ** draw(st.integers(1, 130)) - 1)
        return TruncSeries("q", {k: CyclotomicNumber(N, [extreme] * phi) for k in keys},
                           cutoff=cutoff)
    size = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
    dens = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70))
    coeffs = {}
    for k in keys:
        den = draw(dens)
        coeffs[k] = CyclotomicNumber(N, [Fraction(draw(size), den) for _ in range(phi)])
    return TruncSeries("q", coeffs, cutoff=cutoff)


@given(st.data(), st.integers(2, 12), st.integers(1, 12), st.integers(1, 12),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_fused_field_product_matches_the_per_coefficient_loop(data, N, cut_a, cut_b,
                                                              mirror):
    a = data.draw(_field_series(N, cut_a))
    if mirror:
        # a(q) * a(-q) is even in q: every odd coefficient cancels to zero
        b = TruncSeries("q", {k: -c if k % 2 else c for k, c in a.coeffs.items()},
                        cutoff=a.cutoff)
    else:
        b = data.draw(_field_series(N, cut_b))
    want = _reference_product(a, b)
    got = a * b
    assert got == want
    assert str(got) == str(want)
    assert [(k, c.nums, c.den) for k, c in sorted(got.coeffs.items())] == \
        [(k, c.nums, c.den) for k, c in sorted(want.coeffs.items())]
    if mirror:
        assert not any(k % 2 for k in got.coeffs)


def test_fused_field_product_refuses_mismatched_levels():
    a = TruncSeries("q", {0: CyclotomicNumber.zeta(5), 2: CyclotomicNumber.zeta(5, 3)},
                    cutoff=4)
    b = TruncSeries("q", {1: CyclotomicNumber.zeta(7)}, cutoff=4)
    with pytest.raises(ValueError, match="incompatible cyclotomic levels"):
        a * b
    with pytest.raises(ValueError, match="incompatible cyclotomic levels"):
        b * a
    # a series holds one level, so a mixed one is refused when it is built
    with pytest.raises(ValueError, match="incompatible cyclotomic levels"):
        TruncSeries("q", {0: CyclotomicNumber.zeta(5), 1: CyclotomicNumber.zeta(7)},
                    cutoff=4)


@given(st.data(), st.sampled_from((2, 3, 5, 12)), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_series_mixing_rationals_and_field_elements_match_the_loop(data, N, cutoff):
    field = data.draw(_field_series(N, cutoff))
    rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
    mixed = dict(field.coeffs)
    for k in data.draw(st.lists(st.integers(0, cutoff), max_size=4)):
        mixed[k] = data.draw(rationals)
    a = TruncSeries("q", mixed, cutoff=cutoff)
    for b in (a, field):
        assert a * b == _reference_product(a, b)
        assert str(a * b) == str(_reference_product(a, b))


@pytest.fixture
def broken_row_product(monkeypatch):
    """A TruncSeries row product with one entry off by one: the first entry
    of each product, which adds 1/(product of the denominators) to its
    constant term.  The memoized unit series of the index limit are built
    by such products, so they are dropped before and after."""
    product = series._row_product

    def off_by_one(level, a, b, cut):
        out = product(level, a, b, cut)
        out[0] += 1
        return out

    localization._unit_factor.cache_clear()
    monkeypatch.setattr(series, "_row_product", off_by_one)
    yield
    monkeypatch.undo()
    localization._unit_factor.cache_clear()


def test_broken_field_makes_the_genus_routes_disagree(broken_row_product, tmp_path,
                                                     capsys):
    # the localization route builds G_{k,N} and the G_I from integer rows
    # and never calls the row product of TruncSeries.__mul__, so only the
    # Chern route follows it
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(cpn_fixed_points(2, (1, 3)).to_json()))
    assert main(["genus", str(path), "3", "--prec", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("routes agree: NO\n")
    assert captured.err.startswith("routes differ first at q^0: localization ")


@pytest.mark.parametrize("N", [3, 5, 12])
def test_broken_row_product_splits_the_routes_and_the_lemma(broken_row_product, N):
    # one wrong entry of the TruncSeries row product reaches the Chern route
    # and the product route of the lemma, never the Kronecker product
    fpd = cpn_fixed_points(3, (1, 2, 5))
    assert genus_qexp(fpd, N, 8) != genus_via_chern(fpd, N, 8)
    with pytest.raises(ArithmeticError, match="a_0 != 1"):
        criterion_lemma_eisenstein()


def _general_relation_per_k(n, N, k, P):
    """The CP^n relation report for one k, with S(z)^n rebuilt from S(z)^0
    by n full list convolutions: the reference for `general_relation_cpn`."""
    zero = TruncSeries.zero("q", P)
    G = [TruncSeries("q", {0: CyclotomicNumber.from_rational(N, 1)}, cutoff=P)]
    G += [modular.eisenstein_qexp(j, N, P) for j in range(1, k + 1)]
    power = [G[0]] + [zero] * k
    for _ in range(n):
        power = [sum((power[i] * G[j - i] for i in range(j + 1)), zero)
                 for j in range(k + 1)]
    lhs = power[k] * Fraction((-1) ** (n + k + 1))
    rhs = zero
    for ell in range(n):
        rhs = rhs + G[k - ell] * power[ell] * comb(k - ell - 1, n - ell - 1)
    report = {"n": n, "N": N, "k": k, "q_precision": P,
              "ok": lhs == rhs, "zero_index_convention": "G_0 = 1"}
    if not report["ok"]:
        e = next(j for j in range(P) if lhs.coeff(j) != rhs.coeff(j))
        report.update(first_mismatch={"exponent": e, "lhs": str(lhs.coeff(e)),
                                      "rhs": str(rhs.coeff(e))},
                      lhs=str(lhs), rhs=str(rhs))
    return report


@pytest.mark.parametrize("P", [10, 15])
@pytest.mark.parametrize("n,N", [(n, N) for n in range(1, 6)
                                 for N in range(2, n + 2) if (n + 1) % N == 0])
def test_general_relation_matches_the_per_k_rebuild(n, N, P):
    # a contiguous range, a non-contiguous set, an unsorted one, a single k
    reference = {k: _general_relation_per_k(n, N, k, P) for k in range(n, n + 6)}
    for ks in (range(n, n + 5), (n, n + 2, n + 5), (n + 3, n, n + 1), (n + 1,)):
        assert general_relation_cpn(n, N, ks, P) == [reference[k] for k in ks]
    assert all(report["ok"] for report in reference.values())


def test_general_relation_fails_like_the_per_k_rebuild(monkeypatch):
    # the wrong G[1,3] of test_general_relation_failure_keeps_the_convention
    real = modular.eisenstein_qexp
    monkeypatch.setattr(modular, "eisenstein_qexp",
                        lambda k, N, prec: real(k, N, prec) + (k == 1))
    ks = (2, 5, 3, 4)
    got = general_relation_cpn(2, 3, ks, 10)
    assert got == [_general_relation_per_k(2, 3, k, 10) for k in ks]
    assert not got[3]["ok"] and "lhs" in got[3] and "rhs" in got[3]
    assert got[3]["first_mismatch"]["exponent"] == 1


def test_general_relation_criterion_builds_each_power_once(monkeypatch):
    # one S(z)^n per (n, N) takes 80 row products; rebuilding it for
    # each k took 483
    product, calls = series._row_product, []

    def counted(*args):
        calls.append(args[0])
        return product(*args)

    monkeypatch.setattr(series, "_row_product", counted)
    assert criterion_general_relation()[0]
    assert 0 < len(calls) <= 120


def test_relation_with_every_q_I_zero_sums_to_the_level_N_zero_series():
    # CP^4 at level 3, which g = 5 refutes: every q_I of k = 5 is 0
    rel = _relation(cpn_fixed_points(4, (1, 2, 3, 4)), 3, 5)
    assert not any(c for _, c in rel.terms)
    total = localization._relation_sum(rel.terms, 3, 30)
    assert (total.level, total.cutoff, total.entries, total.denom) == (3, 30, (0,) * 60, 1)
    assert str(verify_relation(rel, 30)) == "0 + O(q^30)"
