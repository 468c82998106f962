"""The acceptance gate: every top-level guarantee of the package, each
checked at exact equality, one test per criterion."""

import pytest

from genus_forge import acceptance


@pytest.mark.parametrize(
    "number,title,fn",
    acceptance.CRITERIA,
    ids=[f"{num:02d}-{title}" for num, title, _ in acceptance.CRITERIA])
def test_criterion(number, title, fn):
    ok, detail = fn(acceptance.DEFAULT_SEED)
    assert ok, f"criterion {number} ({title}): {detail}"


def test_broken_eisenstein_series_fails_with_the_first_coefficient(monkeypatch):
    # G[2,N] + q^3 breaks the relations: the k = 4 relation of the
    # projective plane holds G[2,3]^2, whose residual 2*G[2,3]*q^3 + q^6
    # first shows at q^3, with 2 * B_2/2! = 1/6.  Criteria 2 and 6 name
    # the first nonzero coefficient, and criterion 9 its first mismatch
    # (lhs - rhs = -3 q^3 at k = n = 2), before the whole series
    from genus_forge import localization, modular
    from genus_forge.series import TruncSeries

    real = modular.eisenstein_qexp
    monkeypatch.setattr(modular, "eisenstein_qexp", lambda k, N, prec: real(k, N, prec)
                        + (TruncSeries("q", {3: 1}, cutoff=prec) if k == 2 else 0))
    localization._packed_product.cache_clear()
    try:
        ok, detail = acceptance.criterion_cp2_relations()
        assert not ok
        assert detail.startswith("k=4: nonzero residual, first at q^3: (1/6) @ Q(zeta_3); "
                                 "residual 1/6*q^3 + ")
        # the level-3 genus of the projective plane no longer vanishes
        ok, detail = acceptance.criterion_toric_vanishing()
        assert not ok
        assert detail.startswith("n=2, N=3, weights=(8, -6): nonzero genus, first at q^3: "
                                 "(3) @ Q(zeta_3); genus 3*q^3 + O(q^15)")
        ok, detail = acceptance.criterion_general_relation()
        assert not ok
        assert ("'first_mismatch': {'exponent': 3, 'lhs': '(-3) @ Q(zeta_3)', "
                "'rhs': '(0) @ Q(zeta_3)'}, 'lhs': '-1/12 - q - 3*q^2 - 3*q^3") in detail
    finally:
        localization._packed_product.cache_clear()
