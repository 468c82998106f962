"""Command-line front door.

Subcommands: eisenstein, qn, genus, chiy, relations, hilbert, coadjoint,
polytope, selftest.  Exit codes are a stable contract: 0 success, 1 a
verification failed (nonzero residual, route disagreement, failed
self-test), 2 usage or validation error (argparse's own convention) or a
stdout pipe closed by its reader.  Input files, all read by `_read_json`,
are checked as they are loaded: a path that cannot be read, a document
nested too deeply to parse or a value of the wrong JSON shape exits 2 (a
value is never coerced), and fixed-point data must have q_I = 0 for
|I| < n and an asserted index that divides g (`_load_fixed_points`), as
every manifold does.

The default q-precision is DEFAULT_PREC = 15; --prec sets another.
Requests are capped by the *_MAX_* constants below: beyond a cap the
request exits 2 with a message naming it.  A cap on one argument is the
bound of that argument's argparse type (`_add_int`), which its --help
states; a cap that needs more than one argument, or the input, is checked
by `_check_cap`.  A level that the fixed-point data refutes is refused
with exit 2 as well (`_check_level`).  All output is plain text, or
JSON under --json, with entries sorted so runs are reproducible byte for
byte.

Each subcommand imports the library modules it runs inside its own
function, so a request loads only those: `eisenstein` loads no orbit
code, and `coadjoint` none of the q-series stack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_SEED

if TYPE_CHECKING:   # for the annotations only; each subcommand imports its own
    from .coadjoint import OrbitSpec
    from .fixedpoints import FixedPointData

DEFAULT_PREC = 15             # q-precision when --prec is not given


def _read_json(path: str):
    """The JSON document in the file at `path`.  A document nested too deeply
    for the parser is a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_fixed_points(path: str) -> FixedPointData:
    """Fixed-point data from a JSON file, checked to be a manifold's: its
    asserted index, if any, divides g (`FixedPointData.index_bound`), and
    q_I = 0 for |I| < n.  A dimension n above QSERIES_MAX_DIM is refused
    before these checks."""
    from .fixedpoints import FixedPointData, brief, relation_coefficients
    from .symfunc import partition_str, partitions_at_most

    fpd = FixedPointData.from_json(_read_json(path))
    _check_cap("dimension n", fpd.n, "QSERIES_MAX_DIM")
    g = fpd.index_bound()
    if fpd.asserted_index is not None and g % fpd.asserted_index:
        raise ValueError(f"asserted index {brief(fpd.asserted_index)} does not "
                         f"divide {_bound_text(g)}")
    low = [I for k in range(fpd.n) for I in partitions_at_most(k, fpd.n)]
    for I, value in zip(low, relation_coefficients(fpd, low)):
        if value:
            raise ValueError(f"not the fixed points of a manifold: "
                             f"q_{partition_str(I)} = {brief(value)}, but q_I = 0 "
                             f"for every |I| < n = {fpd.n}")
    return fpd


def _bound_text(g: int) -> str:
    from .fixedpoints import brief
    return (f"g = {brief(g)}, the gcd of the differences of the weight sums at "
            "the fixed points, which a manifold's index divides")


def _check_level(fpd: FixedPointData, N: int) -> None:
    """Refuse a level N that the data refutes, as `relations` and `hilbert`
    do: one that does not divide the asserted index, if any, or g."""
    fpd.check_level(N)
    g = fpd.index_bound()
    if g % N:
        raise ValueError(f"N={N} does not divide {_bound_text(g)}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# -- subcommands -----------------------------------------------------------------------


def cmd_eisenstein(args) -> int:
    from .modular import eisenstein_qexp, series_to_json

    series = eisenstein_qexp(args.weight, args.level, args.prec)
    if args.json:
        _print_json({"series": series_to_json(series)})
    else:
        print(f"G[{args.weight},{args.level}] = {series}")
    return 0


def cmd_qn(args) -> int:
    from .cyclotomic import euler_phi
    from .modular import qn_expansion_via_product, series_to_json

    _check_cap("phi(N) * --prec", euler_phi(args.level) * args.prec, "QN_MAX_PHI_PREC")
    qn = qn_expansion_via_product(args.level, args.x_order, args.prec)
    if args.json:
        _print_json({"level": args.level,
                     "coeffs": [[k, series_to_json(a)]
                                for k, a in enumerate(qn)]})
    else:
        for k, a in enumerate(qn):
            print(f"a_{k} = {a}")
    return 0


def cmd_genus(args) -> int:
    from .localization import genus_qexp, genus_via_chern
    from .modular import series_to_json

    fpd = _load_fixed_points(args.fixed_points)
    via_loc = genus_qexp(fpd, args.level, args.prec)
    via_chern = genus_via_chern(fpd, args.level, args.prec)
    difference = via_loc - via_chern
    if difference:
        first = difference.valuation()
        print(f"routes differ first at q^{first}: localization "
              f"{via_loc.coeff(first)}, Chern numbers {via_chern.coeff(first)}",
              file=sys.stderr)
    if args.json:
        _print_json({"level": args.level, "agree": not difference,
                     "series": series_to_json(via_loc)})
    else:
        print(f"genus (localization)  = {via_loc}")
        print(f"genus (Chern numbers) = {via_chern}")
        print(f"routes agree: {'NO' if difference else 'yes'}")
    return 1 if difference else 0


def cmd_chiy(args) -> int:
    from .localization import chi_y_from_counts, divides_chi_y

    fpd = _load_fixed_points(args.fixed_points)
    chi = chi_y_from_counts(fpd)
    euler = chi.evaluate([Fraction(-1)])
    report = {} if args.k0 is None else divides_chi_y(chi, args.k0)
    if args.json:
        payload = {"chi_y": str(chi), "euler": str(euler), "fixed_points": len(fpd.points)}
        if report:
            payload["divisibility"] = {k: str(v) for k, v in report.items()}
        _print_json(payload)
    else:
        print(f"chi_y = {chi}\nchi_(-1) = {euler} ({len(fpd.points)} fixed points)")
        if report:
            print(f"divisible by 1 - y + ... + (-y)^{args.k0 - 1}: quotient "
                  f"{report['quotient']}" if report["divisible"]
                  else f"NOT divisible: remainder {report['remainder']}")
    return 1 if report and not report["divisible"] else 0


def cmd_relations(args) -> int:
    from .localization import build_relations, verify_relation

    fpd = _load_fixed_points(args.fixed_points)
    _check_level(fpd, args.level)
    if args.k_max < args.k_min:
        raise ValueError("k-max must be >= k-min")
    code = 0
    out = []   # one JSON entry or one text line per relation
    for rel in build_relations(fpd, args.level, range(args.k_min, args.k_max + 1)):
        k = rel.k
        if not args.raw:
            rel = rel.primitive()
        residual = verify_relation(rel, args.prec) if args.verify else None
        genus = k == fpd.n   # the sum over |I| = n is the level-N genus, not a relation
        code |= bool(residual) and not genus
        if args.json:
            entry = {"k": k, "relation": rel.to_json(), "display": rel.render()}
            if residual is not None:
                entry["verified"] = not residual
            if residual and genus:
                entry["nonzero_genus"] = True
            out.append(entry)
            continue
        line = f"k={k}: {rel.render()}"
        if residual:
            e = residual.valuation()
            if genus:
                line += (f"   [k = n: the level-N genus (up to scale), nonzero at "
                         f"q^{e}: {residual.coeff(e)}; N | index "
                         "does not imply that it vanishes]")
            else:
                line += (f"   [FAILED: q^{e} coefficient "
                         f"{residual.coeff(e)}; residual {residual}]")
        elif residual is not None:
            line += f"   [verified to q^{args.prec}]"
        out.append(line)
    if args.json:
        _print_json({"relations": out})
    else:
        print("\n".join(out))
    return code


def cmd_hilbert(args) -> int:
    from .localization import hilbert_polynomial

    fpd = _load_fixed_points(args.fixed_points)
    _check_level(fpd, args.level)
    ms = [args.m] if args.m is not None else list(range(fpd.n + 1))
    hs = [(m, hilbert_polynomial(fpd, args.level, m)) for m in ms]
    if args.json:
        _print_json({"hilbert": [{"m": m, "polynomial": str(h),
                                  "at_zero": str(h.evaluate([Fraction(0)]))} for m, h in hs]})
    else:
        for m, h in hs:
            print(f"H_{m}(x) = {h}   (H_{m}(0) = {h.evaluate([Fraction(0)])})")
    return 0


# Caps on one q-series request, so that every accepted request finishes
# well inside a minute.  Measured in a fresh process on a shared 2-core
# x86-64 VM (median of 3 runs), with the level at 11
# (phi = 10, the widest field below the level cap):
# - eisenstein at precision 60 takes 0.13 s for weight 20;
# - relations --verify at precision 60 takes 0.6 s for CP^4, k = 4..12, and
#   5-9 s for CP^7, k = 7..20 (10-14 s for the A4 orbit with J = {1, 2},
#   n = 7 with 20 fixed points; ranges over 8 runs, as the VM's speed
#   swings), growing with k and n: k = 7..24 takes 24 s in-process;
# - genus at precision 60 takes 0.2 s for CP^3, 0.2 s for CP^4 and 0.6 s
#   for CP^7 (0.5 s for that A4 orbit); the Chern-number route, which grows
#   fast with the dimension n of the data, is 0.2 s of it on CP^7;
# - the dimension cap also covers chiy and hilbert: hilbert at level 2 takes
#   0.4 s on CP^7 (1.0 s on CP^9), most of it in the fixed-point sum, and
#   chiy 0.11 s on CP^7;
# - qn expands its product on a table growing like N prec^2 x-order^2; its
#   largest admitted request (level 6, precision 60, x-order 10) takes 0.42 s.
QSERIES_MAX_PREC = 60         # --prec
QSERIES_MAX_LEVEL = 12        # N, for eisenstein, qn, genus and relations
QN_MAX_X_ORDER = 10           # --x-order
QN_MAX_PHI_PREC = 150         # phi(N) * --prec, for qn
QSERIES_MAX_WEIGHT = 20       # eisenstein weight k, and relations k-max
QSERIES_MAX_DIM = 7           # n of any fixed-point file a subcommand reads


# Caps on one coadjoint request, so that every accepted request finishes
# well inside a minute.  Medians of 3 fresh processes, shared 2-core x86-64:
# - an orbit has one coset, and with --xi one fixed point, per element of
#   W^J, which for J = () is all of W; with --xi and J = (), A6 (|W| = 5040)
#   takes 0.42 s and B5 (3840) 0.30 s; past the cap, enumerating the orbit
#   takes 1.7 s for A7 (40320) and 1.4 s for B6 (46080), and building its
#   fixed points as well 2.5 s for A7 and 2.6 s for B6;
# - a crosscheck over |I| = n..n+extra grows with n and with the degree:
#   with 2 extra degrees CP^6 takes 0.40 s, A4 J=[1,2] (n = 7) 0.61 s and
#   the slowest admitted orbits, A5 J=[1,3,4,5] and J=[1,2,3,5] (n = 8),
#   2.2-2.9 s; past the cap, A4 J=[1] (n = 9) takes 6.8 s.
COADJOINT_MAX_RANK = {"A": 6, "B": 5}
COADJOINT_MAX_ORBIT_DIM = 8      # n, when --crosscheck or --partition is given
COADJOINT_MAX_EXTRA_DEGREES = 2  # |I| - n, for --extra-degrees and --partition


def _cap(name: str, key: str | None = None) -> tuple[str, int]:
    """The cap constant `name`, or its entry `key` for a per-family cap, as
    the label a refusal prints and the limit."""
    limit = globals()[name]
    return (name, limit) if key is None else (f"{name}[{key!r}]", limit[key])


def _check_cap(what: str, value: int, name: str, key: str | None = None) -> None:
    """Refuse a request whose `what` is past its cap: the check of every cap
    that needs more than one argument, or the input."""
    label, limit = _cap(name, key)
    if value > limit:
        raise ValueError(f"{what} = {value} exceeds the cap {label} = {limit}")


def _build_orbit(args) -> OrbitSpec:
    from .coadjoint import OrbitSpec, RootSystem, cpn_orbit, grassmannian_orbit

    positional = args.family is not None or args.rank is not None
    if (args.cpn is not None) + (args.grassmannian is not None) + positional > 1:
        raise ValueError("give only one of --cpn, --grassmannian, or family and rank")
    if args.J is not None and not positional:
        raise ValueError("--J needs family and rank")
    if args.cpn is not None:
        return cpn_orbit(args.cpn)
    if args.grassmannian is not None:
        return grassmannian_orbit(args.grassmannian)
    if args.family is None or args.rank is None:
        raise ValueError("give either --cpn, --grassmannian, or family and rank")
    _check_cap("rank", args.rank, "COADJOINT_MAX_RANK", args.family)
    return OrbitSpec(RootSystem(args.family, args.rank), args.J or [])


def cmd_coadjoint(args) -> int:
    from .coadjoint import crosscheck_qI, orbit_fixed_points, q_I_via_divided_diff
    from .symfunc import partition_str, partitions_at_most

    orbit = _build_orbit(args)
    if args.crosscheck or args.partition is not None:
        _check_cap("orbit dimension n", orbit.n, "COADJOINT_MAX_ORBIT_DIM")
    if args.partition is not None:
        _check_cap("--partition degree |I| - n", sum(args.partition) - orbit.n,
                   "COADJOINT_MAX_EXTRA_DEGREES")
    fpd = orbit_fixed_points(orbit, args.xi) if args.xi else None
    poly = None if args.partition is None else q_I_via_divided_diff(orbit, [args.partition])[0]
    if args.crosscheck and not args.xi:
        raise ValueError("--crosscheck needs --xi")
    degrees = range(orbit.n, orbit.n + 1 + args.extra_degrees)
    checks = (crosscheck_qI(orbit, [I for k in degrees for I in partitions_at_most(k, orbit.n)],
                            args.xi) if args.crosscheck else [])
    if args.json:
        payload = {"orbit": orbit.to_json(), "n": orbit.n,
                   "longest_word": list(orbit.longest_rep.word)}
        if fpd is not None:
            payload["fixed_points"] = fpd.to_json()
        if poly is not None:
            payload["q_I"] = str(poly)
        if args.crosscheck:
            payload["crosschecks"] = [
                {"partition": r["partition"], "ok": r["ok"],
                 "divided_difference": str(r["divided_difference"]),
                 "localization": str(r["localization"])} for r in checks]
        _print_json(payload)
    else:
        print(f"orbit: {orbit!r}\nroots outside <J>: {orbit.complement_roots}")
        print("cosets: " + ", ".join(w.label() for w in orbit.cosets))
        if fpd is not None:
            print(f"fixed points at xi={tuple(args.xi)}:")
            for label, point in zip(fpd.labels, fpd.points):
                print(f"  {label}: {point}")
        if poly is not None:
            print(f"q_{partition_str(args.partition)} = {poly}")
        for r in checks:
            print(f"  {r['partition']}: divided-difference {r['divided_difference']} vs "
                  f"localization {r['localization']} [{'ok' if r['ok'] else 'MISMATCH'}]")
    return 0 if all(r["ok"] for r in checks) else 1


def cmd_polytope(args) -> int:
    from .fixedpoints import json_int_list
    from .polytope import FHVectors, betti_pattern, combinatorial_index, h_divisibility

    data = _read_json(args.input)
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    if "edges" not in data and "f" not in data:
        raise ValueError('input JSON needs an "f" or "edges" entry')
    k0, index, fh_vectors, report, pattern = args.k0, None, None, None, None
    if "edges" in data:
        edges = data["edges"]
        if not (isinstance(edges, list)
                and all(isinstance(e, list) and len(e) == 2 for e in edges)):
            raise ValueError('"edges" must be a list of [p, q] pairs')
        index = combinatorial_index([tuple(tuple(json_int_list(v, "edge endpoint"))
                                           for v in e) for e in edges])
        k0 = index if k0 is None else k0
    if "f" in data:
        f = json_int_list(data["f"], '"f"')
        fh_vectors = FHVectors(len(f) - 1, f)
        if k0 is not None:
            report = h_divisibility(fh_vectors.h, k0)
            pattern = betti_pattern(fh_vectors.n, k0, fh_vectors.h)
    if args.json:
        payload = {} if index is None else {"index": index}
        if fh_vectors is not None:
            payload.update(fh_vectors.describe())
        if report is not None:
            payload.update(divisibility=report, pattern=pattern)
        _print_json(payload)
    else:
        if index is not None:
            print(f"combinatorial index = {index}")
        if fh_vectors is not None:
            print(f"f = {fh_vectors.f}\nh = {fh_vectors.h} (palindromic: "
                  f"{'yes' if fh_vectors.palindromic() else 'NO'})")
        if report is not None:
            print(f"1 + y + ... + y^{k0 - 1} divides: quotient {report['quotient']}"
                  if report["divisible"] else
                  f"NOT divisible by 1 + ... + y^{k0 - 1}: remainder {report['remainder']}")
            print(f"pattern: {pattern}")
    return 1 if report and (not report["divisible"] or pattern["ok"] is False) else 0


def cmd_selftest(args) -> int:
    from . import acceptance

    def timing(number, seconds):
        print(f"criterion {number}: {seconds:.3f} s", file=sys.stderr)

    return 0 if acceptance.run_all(args.seed, timing=timing) else 1


# -- parser ------------------------------------------------------------------------------


def _add_int(p, *flags, low: int = 1, cap: str | None = None, key: str | None = None,
             help: str | None = None, **kwargs) -> None:
    """Add an int argument of at least `low` and, given a cap (see `_cap`), at
    most its limit: the check of every cap on one argument.  argparse refuses
    any other value with exit 2, and the argument's --help states the cap."""
    label, high = _cap(cap, key) if cap else ("", None)

    def bounded(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}" if high is None else
                f"must be between {low} and the cap {label} = {high}, got {value}")
        return value

    bounded.__name__ = "int"   # so that argparse reads "invalid int value: 'x'"
    if cap:
        help = f"{help + '; ' if help else ''}{low} to {high}, the cap {label}"
    p.add_argument(*flags, type=bounded, help=help, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus-forge",
        description="Exact arithmetic for level-N elliptic genera: Eisenstein "
                    "series, fixed-point localization, relations, and the "
                    "polytope combinatorics they constrain.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_prec=True):
        if with_prec:
            _add_int(p, "--prec", cap="QSERIES_MAX_PREC", default=DEFAULT_PREC,
                     help=f"q-series precision (default {DEFAULT_PREC})")
        p.add_argument("--json", action="store_true", help="JSON output")

    def level(p, help=None):
        _add_int(p, "level", low=2, cap="QSERIES_MAX_LEVEL", help=help)

    p = sub.add_parser("eisenstein", help="q-expansion of G[k,N]")
    _add_int(p, "weight", cap="QSERIES_MAX_WEIGHT")
    level(p)
    common(p)
    p.set_defaults(fn=cmd_eisenstein)

    p = sub.add_parser("qn", help="x-coefficients of the level-N expansion")
    level(p)
    _add_int(p, "--x-order", cap="QN_MAX_X_ORDER", default=7)
    common(p)
    p.set_defaults(fn=cmd_qn)

    p = sub.add_parser("genus", help="level-N genus q-expansion, two routes")
    p.add_argument("fixed_points", help="fixed-point data JSON file")
    level(p)
    common(p)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("chiy", help="chi_y genus from fixed-point counts")
    p.add_argument("fixed_points")
    _add_int(p, "--k0", help="also test divisibility at this index")
    common(p, with_prec=False)
    p.set_defaults(fn=cmd_chiy)

    p = sub.add_parser("relations", help="Eisenstein-product relations")
    p.add_argument("fixed_points")
    level(p, "level N; it must divide g and the file's asserted index, if "
             "it has one (see hilbert)")
    _add_int(p, "k_min")
    _add_int(p, "k_max", cap="QSERIES_MAX_WEIGHT")
    p.add_argument("--verify", action="store_true",
                   help="check each relation vanishes as a q-series")
    p.add_argument("--raw", action="store_true",
                   help="keep raw localization coefficients (no content division)")
    common(p)
    p.set_defaults(fn=cmd_relations)

    p = sub.add_parser("hilbert", help="twisted-index polynomials H_m(x)")
    p.add_argument("fixed_points")
    _add_int(p, "level", help="index divisor for the line-bundle power; it must "
                              "divide g, the gcd of the differences of the weight "
                              "sums at the fixed points, and the file's asserted "
                              "index, if it has one")
    p.add_argument("--m", type=int, help="single exterior-power degree")
    common(p, with_prec=False)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser(
        "coadjoint", help="orbit cosets, fixed points, crosschecks",
        description="Cosets of W/W_J, fixed points at a circle direction, and "
                    "the divided-difference vs localization crosscheck of q_I.")
    p.add_argument("family", nargs="?", choices=("A", "B"))
    _add_int(p, "rank", nargs="?", help="at most the family's COADJOINT_MAX_RANK, "
                                        "which --cpn and --grassmannian show")
    p.add_argument("--J", type=int, nargs="*", help="simple-root indices")
    _add_int(p, "--cpn", cap="COADJOINT_MAX_RANK", key="A",
             help="projective-space orbit of this dimension")
    _add_int(p, "--grassmannian", cap="COADJOINT_MAX_RANK", key="B",
             help="oriented 2-planes in R^(2m+1), give m")
    p.add_argument("--xi", type=int, nargs="*", help="circle direction")
    p.add_argument("--partition", type=int, nargs="*",
                   help="print q_I for this partition")
    p.add_argument("--crosscheck", action="store_true",
                   help="compare both q_I routes for |I| = n..n+extra")
    _add_int(p, "--extra-degrees", low=0, cap="COADJOINT_MAX_EXTRA_DEGREES", default=2,
             help="degrees above n to crosscheck (default 2)")
    common(p, with_prec=False)
    p.set_defaults(fn=cmd_coadjoint)

    p = sub.add_parser("polytope", help="h-vector, index, divisibility, pattern")
    p.add_argument("input", help='JSON file with "f" and/or "edges"')
    _add_int(p, "--k0", help="index to test against (default: from edges)")
    common(p, with_prec=False)
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("selftest", help="run the acceptance suite",
                       description="Run the ten acceptance criteria; the "
                                   "report goes to stdout and each criterion's "
                                   "wall-clock time to stderr.")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
