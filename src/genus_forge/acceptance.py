"""The build's acceptance suite: ten checks, every one at exact equality.

Each criterion function returns (ok, detail).  `run_all` prints one line
per criterion and reports overall success; the CLI `selftest` subcommand
is a thin wrapper around it, while tests/test_acceptance.py calls each
criterion of `CRITERIA` directly, one test apiece.

Everything here is a second pass over results the unit tests already
cover piecemeal; the value of the suite is that it runs the headline
computations end to end, against pinned values, in one place.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from . import DEFAULT_SEED
from .coadjoint import (cpn_orbit, crosscheck_qI, grassmannian_orbit,
                        orbit_fixed_points)
from .cyclotomic import CyclotomicNumber
from .localization import (build_relations, chern_number, chi_y_from_counts,
                           cpn_fixed_points, cpn_hilbert_closed_form,
                           general_relation_cpn, genus_qexp,
                           hilbert_polynomial, random_product_of_projective_spaces,
                           verify_relation)
from .modular import f_lambda_table, verify_lemma_eisenstein
from .polytope import (betti_pattern, combinatorial_index, cube_f_vector,
                       h_divisibility, h_from_f, simplex_edges, simplex_f_vector)
from .sparsepoly import SparsePoly
from .symfunc import chi_y_power_series, genus_value


# 1 ------------------------------------------------------------------------------------

_F_LAMBDA_EXPECTED = {
    (2, (2,)): ("-1/6", "-4", "-4", "-16", "-4", "-24"),
    (2, (1, 1)): ("1/12", "2", "2", "8", "2", "12"),
    (3, (2,)): ("-1/4", "-3", "-9", "-3", "-21", "-18"),
    (3, (1, 1)): ("1/12", "1", "3", "1", "7", "6"),
}


def criterion_f_lambda_tables(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Weight-two coefficient series of the level-N genus in dimension four,
    through q^5, at levels 2 and 3."""
    bad = []
    for N in (2, 3):
        table = f_lambda_table(N, 2, 6)
        for part in ((2,), (1, 1)):
            want = [Fraction(v) for v in _F_LAMBDA_EXPECTED[(N, part)]]
            got = [table[part].coeff(k) for k in range(6)]
            for k in range(6):
                if got[k] != CyclotomicNumber.from_rational(N, want[k]):
                    bad.append((N, part, k, str(got[k]), str(want[k])))
    if bad:
        return False, f"mismatched entries: {bad}"
    return True, ("4 series x 6 coefficients reproduced; includes the q^3 "
                  "coefficient 8 of f_[1,1] at level 2 (forced by f_[2] = "
                  "-2 f_[1,1], since G_{1,2} = 0) and the constant -1/4 of "
                  "f_[2] at level 3 (forced by vanishing of the level-3 "
                  "genus of the projective plane)")


# 2 ------------------------------------------------------------------------------------

_CP2_RELATIONS = {
    4: "4*G[1,3]*G[3,3] + G[2,3]^2 + 5*G[4,3] = 0",
    5: "-G[2,3]*G[3,3] + G[5,3] = 0",
    6: "4*G[1,3]*G[5,3] + 2*G[2,3]*G[4,3] + G[3,3]^2 + 7*G[6,3] = 0",
    7: "-G[2,3]*G[5,3] - G[3,3]*G[4,3] + 2*G[7,3] = 0",
}


def criterion_cp2_relations(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The four level-3 relations from the projective plane, rebuilt from
    fixed-point data, rendered, and verified to vanish through q^20."""
    fpd = cpn_fixed_points(2, (1, 3))
    other = cpn_fixed_points(2, (2, 5))
    ks = sorted(_CP2_RELATIONS)
    for raw, raw_other in zip(build_relations(fpd, 3, ks), build_relations(other, 3, ks)):
        k, rel, display = raw.k, raw.primitive(), _CP2_RELATIONS[raw.k]
        if rel.render() != display:
            return False, f"k={k}: got {rel.render()!r}, want {display!r}"
        if rel.terms != raw_other.primitive().terms:
            return False, f"k={k}: primitive form depends on the weights"
        residual = verify_relation(rel, 20)
        if residual:
            return False, f"k={k}: {_first_nonzero(residual, 'residual')}"
    return True, "k=4..7 rendered exactly and verified to 0 through q^20"


def _first_nonzero(series, name: str) -> str:
    """A series that should vanish, its first nonzero coefficient first."""
    e = series.valuation()
    return f"nonzero {name}, first at q^{e}: {series.coeff(e)}; {name} {series}"


# 3 ------------------------------------------------------------------------------------

def criterion_lemma_eisenstein(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """x-coefficients of the normalized product expansion are the
    Eisenstein q-expansions (k <= 6, N in {2,3,4}, through q^10)."""
    for N in (2, 3, 4):
        report = verify_lemma_eisenstein(N, 6, 10)
        if not report["ok"]:
            return False, f"N={N}: {report}"
    return True, "product vs Fourier agree for k <= 6, N in {2,3,4}, q^10"


# 4 ------------------------------------------------------------------------------------

def criterion_cp2_chi_y(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Chern numbers 9 and 3; chi_y two ways; Euler number 3."""
    fpd = cpn_fixed_points(2, (1, 2))
    c11 = chern_number(fpd, (1, 1))
    c2 = chern_number(fpd, (2,))
    if (c11, c2) != (9, 3):
        return False, f"Chern numbers ({c11}, {c2}) != (9, 3)"
    via_genus = genus_value(chi_y_power_series(4), {(1, 1): c11, (2,): c2}, 2)
    via_counts = chi_y_from_counts(fpd)
    want = SparsePoly(("y",), {(2,): 1, (1,): -1, (0,): 1})
    if via_genus != want or via_counts != want:
        return False, (f"chi_y routes disagree: genus machinery {via_genus}, "
                       f"weight counts {via_counts}")
    euler = via_counts.evaluate([Fraction(-1)])
    if euler != len(fpd.points):
        return False, f"chi_(-1) = {euler} != {len(fpd.points)} fixed points"
    return True, "C_[1,1]=9, C_[2]=3; both chi_y routes give y^2 - y + 1; chi_(-1)=3"


# 5 ------------------------------------------------------------------------------------

def criterion_hilbert_suite(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Hilbert polynomials of projective n-space, n <= 4: the fixed-point
    sum equals the closed form; H_m(0) = (-1)^m; the (-1)^n H_{n-m}(-x)
    symmetry; the alternating sum counts the fixed points."""
    for n in range(1, 5):
        fpd = cpn_fixed_points(n, tuple(range(1, n + 1)))
        polys = []
        for m in range(n + 1):
            h = hilbert_polynomial(fpd, n + 1, m)
            closed = cpn_hilbert_closed_form(n, m)
            if h != closed:
                return False, f"n={n}, m={m}: {h} != {closed}"
            at_zero = h.evaluate([Fraction(0)])
            if at_zero != (-1) ** m:
                return False, f"n={n}, m={m}: H_m(0) = {at_zero}"
            polys.append(h)
        for m in range(n + 1):
            mirrored = polys[n - m].subs_signed({0: (0, -1)}) * Fraction((-1) ** n)
            if polys[m] != mirrored:
                return False, f"n={n}, m={m}: symmetry H_m(x) = (-1)^n H_(n-m)(-x) fails"
        total = SparsePoly.zero(("x",))
        for m in range(n + 1):
            total = total + polys[m] * Fraction((-1) ** m)
        if total != SparsePoly.constant(("x",), n + 1):
            return False, f"n={n}: alternating sum {total} != {n + 1}"
    return True, "closed form, H_m(0), mirror symmetry, and the count hold for n <= 4"


# 6 ------------------------------------------------------------------------------------

def criterion_toric_vanishing(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """genus_qexp == 0 through q^15 and relations k = n+1..n+4 verify,
    for projective n-space (n <= 4) at every level dividing n+1, on three
    random weight vectors per (n, N)."""
    rng = random.Random(seed)
    pool = [w for w in range(-9, 10) if w]
    checked = 0
    for n in range(1, 5):
        for N in range(2, n + 2):
            if (n + 1) % N:
                continue
            seen = set()
            while len(seen) < 3:
                weights = tuple(rng.sample(pool, n))
                if weights in seen:
                    continue
                seen.add(weights)
                fpd = cpn_fixed_points(n, weights)
                series = genus_qexp(fpd, N, 15)
                if series:
                    return False, (f"n={n}, N={N}, weights={weights}: "
                                   f"{_first_nonzero(series, 'genus')}")
                for rel in build_relations(fpd, N, range(n + 1, n + 5)):
                    residual = verify_relation(rel, 15)
                    if residual:
                        return False, (f"n={n}, N={N}, weights={weights}, k={rel.k}: "
                                       f"{_first_nonzero(residual, 'residual')}")
                checked += 1
    return True, (f"{checked} (n, N, weights) runs: zero q-expansion and "
                  "verified relations for k = n+1..n+4")


# 7 ------------------------------------------------------------------------------------

def criterion_degree_vanishing(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """q_I == 0 whenever |I| < n, on 50 random products of projective
    spaces with weights in [-9,9] minus 0: the load check of every
    fixed-point file (`FixedPointData.check_manifold`) passes on each."""
    rng = random.Random(seed)
    for trial in range(50):
        n = rng.randint(1, 4)
        fpd = random_product_of_projective_spaces(rng, n)
        try:
            fpd.check_manifold()
        except ValueError as exc:
            return False, f"trial {trial}: points={list(fpd.points)}: {exc}"
    return True, "50 random manifold models, all coefficients below degree n vanish"


# 8 ------------------------------------------------------------------------------------

_ORBIT_DIRECTIONS = {
    "cp1": ((0, -3), (2, 7), (-1, 4)),
    "cp2": ((0, -1, -2), (1, 5, -3), (2, -7, 4)),
    "cp3": ((0, -1, -2, -5), (1, 5, -3, 9), (3, -2, 8, -11)),
    "gr5": ((5, 2), (3, 1), (7, 4)),
    "gr7": ((7, 3, 1), (9, 4, 2), (8, 5, 1)),
}


def criterion_divided_difference(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Divided-difference route equals localization on projective-space
    orbits (n <= 3) and on 2-plane orbits in R^5, R^7, for n <= |I| <= n+3
    at three generic directions; A-type orbit data matches the direct
    projective-space fixed points up to weight reordering."""
    orbits = [(cpn_orbit(1), "cp1"), (cpn_orbit(2), "cp2"), (cpn_orbit(3), "cp3"),
              (grassmannian_orbit(2), "gr5"), (grassmannian_orbit(3), "gr7")]
    checks = 0
    for orbit, tag in orbits:
        for xi in _ORBIT_DIRECTIONS[tag]:
            for report in crosscheck_qI(orbit, range(orbit.n, orbit.n + 4), xi):
                if not report["ok"]:
                    return False, f"{report}"
                checks += 1
    for n, weights in ((1, (3,)), (2, (1, 2)), (3, (1, 2, 5))):
        xi = (0,) + tuple(-w for w in weights)
        via_orbit = orbit_fixed_points(cpn_orbit(n), xi)
        direct = cpn_fixed_points(n, weights)
        a = sorted(tuple(sorted(p)) for p in via_orbit.points)
        b = sorted(tuple(sorted(p)) for p in direct.points)
        if a != b:
            return False, f"n={n}: orbit points {a} != direct points {b}"
    return True, f"{checks} crosschecks agree; A-orbit matches direct fixed points"


# 9 ------------------------------------------------------------------------------------

def criterion_general_relation(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """The general projective-space identity between products of
    Eisenstein series, for (n, N) in {(1,2),(2,3),(3,2),(3,4)} and
    k = n..n+4, through q^15: one `general_relation_cpn` call per (n, N),
    so each S(z)^n is built once for its five k."""
    conventions = set()
    for n, N in ((1, 2), (2, 3), (3, 2), (3, 4)):
        for report in general_relation_cpn(n, N, range(n, n + 5), 15):
            if not report["ok"]:
                return False, f"(n,N,k)=({n},{N},{report['k']}): {report}"
            conventions.add(report["zero_index_convention"])
    return True, f"holds for all 20 (n, N, k) with convention {sorted(conventions)}"


# 10 -----------------------------------------------------------------------------------

def criterion_polytopes(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """h-vectors, divisibility quotients, combinatorial index of dilated
    simplices, and the four Betti-pattern cases."""
    for n in range(1, 5):
        if h_from_f(simplex_f_vector(n), n) != [1] * (n + 1):
            return False, f"simplex h-vector wrong at n={n}"
        if combinatorial_index(simplex_edges(n, n + 1)) != n + 1:
            return False, f"dilated simplex index wrong at n={n}"
    if h_from_f(cube_f_vector(3), 3) != [1, 3, 3, 1]:
        return False, "3-cube h-vector wrong"
    for h, k0, quotient in (((1, 1, 1, 1), 4, [1]), ((1, 3, 3, 1), 2, [1, 2, 1]),
                            ((1, 2, 1), 2, [1, 1])):
        report = h_divisibility(list(h), k0)
        if not report["divisible"] or report["quotient"] != quotient:
            return False, f"h={h}, k0={k0}: {report}"
    cases = ((3, 4, (1, 1, 1, 1), 1, None), (3, 3, (1, 2, 2, 1), 2, None),
             (4, 3, (1, 2, 3, 2, 1), 3, 1), (7, 5, (1, 3, 5, 6, 6, 5, 3, 1), 4, 2),
             (4, 2, (1, 3, 4, 3, 1), 4, 2))
    for n, k0, b, case, m in cases:
        report = betti_pattern(n, k0, list(b))
        if report != {"ok": True, "case": case, "m": m}:
            return False, f"betti_pattern({n}, {k0}, {b}) -> {report}"
    return True, "h-transforms, quotients, indices, and cases (1)-(4) all verified"


# ---------------------------------------------------------------------------------------

CRITERIA = (
    (1, "f_lambda tables (levels 2 and 3)", criterion_f_lambda_tables),
    (2, "projective-plane relations at level 3", criterion_cp2_relations),
    (3, "product expansion vs Eisenstein Fourier series", criterion_lemma_eisenstein),
    (4, "Chern numbers and chi_y of the projective plane", criterion_cp2_chi_y),
    (5, "Hilbert polynomial suite for projective spaces", criterion_hilbert_suite),
    (6, "level-N vanishing and derived relations", criterion_toric_vanishing),
    (7, "degree vanishing on random manifold models", criterion_degree_vanishing),
    (8, "divided differences vs localization", criterion_divided_difference),
    (9, "general projective-space Eisenstein identity", criterion_general_relation),
    (10, "polytope h-vectors, index, Betti patterns", criterion_polytopes),
)


def run_all(seed: int = DEFAULT_SEED) -> bool:
    """Run the ten criteria; one PASS/FAIL line each on stdout and each one's
    wall-clock time on stderr; True iff all pass."""
    all_ok = True
    for number, title, fn in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not a skip
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"criterion {number}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {number:2d}. {title}: {detail}")
    return all_ok
