"""The declared map of two-route checks and the kernels each route owns.

The two routes of a check agree exactly and share no kernel.  A row of
`CHECKS` names both routes, each an entry point with its private kernels
and one mutation of each kernel's result; the lru_caches they fill; how
the check `fails` (asserting disagreement, returning the report, which
`shows` texts per mutation); and the kernels `neither` route takes.  A
kernel, "module.name" or "module.Class.name", is rebound wherever the
package binds it: `from ... import` globals and aliases such as `__rmul__`.
"""

import json
import sys
from collections import namedtuple
from contextlib import contextmanager
from functools import partial, reduce
from importlib import import_module
from operator import add

import pytest

from genus_forge import acceptance, cli, fixedpoints, localization, symfunc
from genus_forge.coadjoint import (cpn_orbit, grassmannian_orbit, orbit_fixed_points,
                                   q_I_via_divided_diff)
from genus_forge.localization import (FixedPointData, Relation, chern_number,
                                      chi_y_from_counts, cpn_fixed_points, general_relation_cpn,
                                      genus_qexp, genus_via_chern, relation_coefficients,
                                      verify_relation)
from genus_forge.modular import eisenstein_qexp, qn_expansion_via_product
from genus_forge.fixedpoints import all_partitions
from genus_forge.symfunc import chi_y_power_series, genus_value

Route = namedtuple("Route", "name run kernels")
Check = namedtuple("Check", "name routes caches fails neither shows", defaults=((), {}))
_PLUS_ONE = partial(add, 1)
_FIRST_ROW_PLUS_ONE = lambda rows: [rows[0] + 1, *rows[1:]]
_LAST_DOUBLED = lambda values: values[:-1] + [2 * v for v in values[-1:]]  # data still loads
_LEADING_PLUS_ONE = lambda table: {**table, max(table): table[max(table)] + 1}
_CP2, _CP3 = cpn_fixed_points(2, (1, 3)), cpn_fixed_points(3, (1, 2, 5))
_ORBITS = ((cpn_orbit, 2, (1, 5, -3)), (grassmannian_orbit, 2, (5, 2)))
_BATCH = [(2,), (1, 1), (3, 1)]
_DEGREE_3 = [(3,), (2, 1)]


def _localization_route():
    # a relation and one with a shifted coefficient: with an index at level 3,
    # and without one at level 5, which g = 3 refutes, so each is built from
    # its q_I, past the level rule of build_relations
    residuals = []
    for data, N in ((_CP2, 3), (FixedPointData(2, _CP2.points), 5)):
        rel = Relation(2, 3, N, list(zip(_DEGREE_3, relation_coefficients(data, _DEGREE_3))), "")
        first = rel.terms[0][0]
        shifted = Relation(2, 3, N, [(I, c + 1 if I == first else c) for I, c in rel.terms], "")
        residuals += [verify_relation(rel, 8), verify_relation(shifted, 8)]
    assert [not residual for residual in residuals] == [True, False, True, False]
    return [genus_qexp(_CP2, N, 6) for N in (3, 5, 12)], residuals


def _chern_route():
    reports = [r for n in (2, 3) for r in general_relation_cpn(n, n + 1, (n, n + 2), 10)]
    assert all(report["ok"] for report in reports)
    return [genus_via_chern(_CP3, N, 8) for N in (2, 5, 12)], reports


def _genus_fails(tmp_path, capsys):
    path = tmp_path / "data.json"
    for fpd, N in ((_CP2, 3), (_CP3, 3), (_CP3, 5), (_CP3, 12)):
        path.write_text(json.dumps(fpd.to_json()))
        assert cli.main(["genus", str(path), str(N), "--prec", "5"]) == 1
        out, err = capsys.readouterr()
        assert out.endswith("routes agree: NO\n")
        assert err.startswith("routes differ first at q^0: localization ")
    return err


def _orbit_fails(tmp_path, capsys):
    assert cli.main(["coadjoint", "--cpn", "2", "--xi", "1", "5", "-3", "--crosscheck"]) == 1
    out = capsys.readouterr().out
    assert "[MISMATCH]" in out
    return out


def _criterion_fails(number, tmp_path, capsys):
    criterion = acceptance.CRITERIA[number - 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "CRITERIA", (criterion,))
        assert not acceptance.run_all()
    line = capsys.readouterr().out
    assert line.startswith(f"FAIL  {number:2d}. {criterion[1]}: ")
    return line


CHECKS = (
    Check("genus", (
        Route("localization", _localization_route, {
            "series.kronecker_product": _PLUS_ONE, "series._pack": _PLUS_ONE,
            "localization._packed_product": _PLUS_ONE,
            "fixedpoints.relation_coefficients": _LAST_DOUBLED}),
        Route("chern", _chern_route, {
            "series._row_product": _FIRST_ROW_PLUS_ONE, "localization.chern_number": _PLUS_ONE,
            "symfunc.monomial_to_elementary": _LEADING_PLUS_ONE,
            "symfunc.f_lambda_values": lambda f: {lam: 1 + f[lam] for lam in f}})),
        (eisenstein_qexp, localization._packed_product, fixedpoints._table_steps,
         symfunc.monomial_to_elementary), _genus_fails,
        neither=tuple(f"cyclotomic.CyclotomicNumber.{name}" for name in
                      ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "inverse"))),
    Check("lemma", (
        Route("product", lambda: [qn_expansion_via_product(N, 7, 10) for N in (2, 3, 4)], {
            "series._row_product": _FIRST_ROW_PLUS_ONE, "series.TruncSeries.inverse": _PLUS_ONE,
            "cyclotomic.CyclotomicNumber.__mul__": _PLUS_ONE,
            "cyclotomic.CyclotomicNumber.inverse": _PLUS_ONE,
            "modular.classical_x_series": _PLUS_ONE}),
        Route("sieve", lambda: [eisenstein_qexp(k, N, 10) for N in (2, 3, 4) for k in range(1, 7)],
              {"modular.eisenstein_qexp": _PLUS_ONE})),
        (eisenstein_qexp,), partial(_criterion_fails, 3),
        shows={"series._row_product": ("ArithmeticError: Q_N lost its normalization: a_0 != 1",)}),
    Check("orbit", (
        Route("divided-difference", lambda: [q_I_via_divided_diff(orbit(m), _BATCH)
                                             for orbit, m, _ in _ORBITS], {
            "symfunc.monomial_sym_eval": lambda values: [2 * v for v in values],
            "coadjoint.divided_difference": _PLUS_ONE,
            "sparsepoly.SparsePoly.__mul__": _PLUS_ONE}),
        Route("localization", lambda: [relation_coefficients(
            orbit_fixed_points(orbit(m), xi), _BATCH) for orbit, m, xi in _ORBITS],
              {"fixedpoints.relation_coefficients": _LAST_DOUBLED})),
        (fixedpoints._table_steps,), _orbit_fails,    # each run builds its orbits afresh
        shows={"symfunc.monomial_sym_eval": (
            "[2]: divided-difference 6 vs localization 3 [MISMATCH]",
            "[1,1]: divided-difference 6 vs localization 3 [MISMATCH]",
            "[3,1]: divided-difference 384 vs localization 192 [MISMATCH]")}),
    Check("chi_y", (
        Route("counts", lambda: chi_y_from_counts(_CP2),
              {"localization.chi_y_from_counts": _PLUS_ONE}),
        Route("genus", lambda: genus_value(chi_y_power_series(4), {
            lam: chern_number(_CP2, lam) for lam in all_partitions(2)}, 2), {
            "symfunc.monomial_to_elementary": _LEADING_PLUS_ONE,
            "sparsepoly.SparsePoly.__mul__": _PLUS_ONE, "localization.chern_number": _PLUS_ONE,
            "series.todd_coefficient": _PLUS_ONE})),
        (symfunc.monomial_to_elementary,), partial(_criterion_fails, 4)),
)


@contextmanager
def _rebound(check, paths, broken):
    """Each kernel at one of `paths` rebound to broken(path, kernel) wherever
    the package binds it, with the check's caches cleared before and after."""
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "genus_forge"]
    try:
        with pytest.MonkeyPatch.context() as mp:
            for path in paths:
                module, *classes, name = path.split(".")
                owner = reduce(getattr, classes, import_module(f"genus_forge.{module}"))
                kernel = vars(owner)[name]
                for space in [owner] if classes else modules:
                    for key in [key for key, value in vars(space).items() if value is kernel]:
                        mp.setattr(space, key, broken(path, kernel))
            for cache in check.caches:
                cache.cache_clear()
            yield
    finally:
        for cache in check.caches:
            cache.cache_clear()


_PAIRS = [pytest.param(c, r, o, id=f"{c.name}-{r.name}")
          for c in CHECKS for r, o in (c.routes, c.routes[::-1])]
_KERNELS = [pytest.param(c, r, p, id=f"{c.name}-{r.name}-{p}")
            for c in CHECKS for r in c.routes for p in r.kernels]


@pytest.mark.parametrize("check,route,other", _PAIRS)
def test_each_route_runs_without_the_other_routes_kernels(check, route, other):
    with _rebound(check, (), None):
        want = route.run()
    crossed = lambda path, kernel: lambda *args: pytest.fail(f"{path} taken across routes")
    with _rebound(check, (*other.kernels, *check.neither), crossed):
        assert route.run() == want


@pytest.mark.parametrize("check,route,path", _KERNELS)
def test_each_broken_kernel_splits_its_check(check, route, path, tmp_path, capsys):
    broken = lambda path, kernel: lambda *args: route.kernels[path](kernel(*args))
    with _rebound(check, (path,), broken):
        report = check.fails(tmp_path, capsys)
    assert all(text in report for text in check.shows.get(path, ()))
