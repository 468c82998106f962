"""Command-line front door.

Subcommands: eisenstein, qn, genus, chiy, relations, hilbert, coadjoint,
polytope, selftest.  Exit codes are a stable contract: 0 success, 1 a
verification failed (nonzero residual, route disagreement, failed
self-test), 2 usage or validation error (argparse's own convention) or a
stdout pipe closed by its reader.  Input files, all read by `_read_json`,
are checked as they are loaded: a path that cannot be read, a document
nested too deeply to parse or a value of the wrong JSON shape exits 2 (a
value is never coerced), and fixed-point data must have q_I = 0 for
|I| < n and an asserted index that divides g, as every manifold does
(`FixedPointData.check_manifold`); g is the gcd of the differences of the
weight sums at the fixed points over the gcd of all weights, which the
index of a manifold divides (`FixedPointData.index_bound`).

The default q-precision is DEFAULT_PREC = 15; --prec sets another.
Requests are capped by the *_MAX_* constants below: beyond a cap the
request exits 2 with a message naming it.  A cap on one argument is the
bound of that argument's argparse type (`_add_int`), which its --help
states; a cap that needs more than one argument, or the input, is checked
by `_check_cap`.  A level that the fixed-point data refutes is refused
with exit 2 as well (`FixedPointData.check_level`), and so is
`polytope --k0` on a file without an "f" entry.  All output is plain
text, or JSON under --json, with entries sorted so runs are reproducible
byte for byte.

No request ends with the interpreter's own refusal to convert a long
integer to or from text (`_digit_limit`, 4 300 digits by default): an
input integer past it is refused as it is read (`_json_int`), and a
subcommand whose numbers no cap bounds checks every integer, numerator
and denominator it will print before it writes its first line
(`_check_printable`; `relations` checks its coefficients before --verify
starts and each residual before it prints it).  Either refusal exits 2
with nothing on stdout.

A request pays only for its own subcommand.  `main` passes the name in
argv[0] to `build_parser`, which then builds that one subparser; with no
name, `-h` or an unknown name it builds all nine (`_SUBCOMMANDS`), so that
help and errors list every subcommand.  Each subcommand imports the
library modules it runs inside its own function, so a request loads only
those: `eisenstein` and `qn` the q-series stack (`cyclotomic`, `series`,
`modular`); `relations` that and `fixedpoints`, which owns the partitions
and the q_I, and `localization`, but neither `symfunc` nor `sparsepoly`;
`genus` `symfunc` besides, for the Chern-number route; `chiy`
`fixedpoints`, `localization` and `sparsepoly`, and `hilbert` those and the
s-series (`series`, `cyclotomic`), with no `symfunc` or `modular`;
`coadjoint` the orbit code and none of the q-series stack; `polytope`
`fixedpoints` and `polytope` alone.  The stdlib `json` is loaded only by
a request that reads an input file or writes --json.

Importing this module freezes the importing process's objects once: the
module body ends with `gc.freeze()`, which moves the objects of the
interpreter, of `site`, of the stdlib modules imported here and of the
CLI's own functions to the permanent generation, which no collection scans
or frees.  The collector stays on for what a request makes itself.  What
the freeze skips is the collection at exit, which otherwise walks and frees
every start-up object: the exit teardown of a cold request falls from
11-14 ms to 3-6 ms (medians of 9 fresh processes each for `coadjoint`,
`eisenstein` and `selftest` requests, Python 3.11.7, shared 2-core VM).
"""

from __future__ import annotations

import argparse
import gc
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
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _json_int(text: str) -> int:
    """A JSON integer literal as an int: one of more digits than the
    interpreter converts (`_digit_limit`) is a ValueError that says so."""
    digits, limit = len(text.lstrip("-")), _digit_limit()
    if limit and digits > limit:
        raise ValueError(f"a JSON integer of {digits} digits is past the "
                         f"{limit}-digit limit of text-to-integer conversion")
    return int(text)


def _digit_limit() -> int:
    """The most digits the interpreter converts between int and text, 0 for
    no limit (and on an interpreter without one)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _load_fixed_points(path: str) -> FixedPointData:
    """Fixed-point data from a JSON file, checked to be a manifold's
    (`FixedPointData.check_manifold`).  A dimension n above QSERIES_MAX_DIM,
    or weights of more than FIXED_POINT_MAX_BITS bits in all, are refused
    before that check."""
    from .fixedpoints import FixedPointData

    fpd = FixedPointData.from_json(_read_json(path))
    _check_cap("dimension n", fpd.n, "QSERIES_MAX_DIM")
    _check_cap("summed weight bits", sum(abs(w).bit_length() for p in fpd.points for w in p),
               "FIXED_POINT_MAX_BITS")
    return fpd.check_manifold()


def _numbers(value):
    """The ints and Fractions that `value` prints: itself, or those of its
    entries, coefficients (`TruncSeries`, `CyclotomicNumber`) or terms
    (`SparsePoly`, `Relation`).  Text and None hold none."""
    if isinstance(value, (int, Fraction)):
        yield value
    elif isinstance(value, (list, tuple, dict)):
        for entry in value.values() if isinstance(value, dict) else value:
            yield from _numbers(entry)
    elif hasattr(value, "coeffs"):
        yield from _numbers(value.coeffs)
    elif hasattr(value, "terms"):
        yield from _numbers(value.terms)


def _check_printable(*values) -> None:
    """Refuse a request whose output would hold an integer, numerator or
    denominator of more digits than the interpreter converts to text
    (`_digit_limit`).  Each subcommand whose numbers no cap bounds calls it
    on what it prints, before it writes its first line."""
    from .fixedpoints import _digit_count, brief

    limit = _digit_limit()
    if not limit:
        return
    for x in _numbers(values):
        if max(map(_digit_count, x.as_integer_ratio())) > limit:
            raise ValueError(f"the output would hold {brief(x)}, past the "
                             f"{limit}-digit limit of integer-to-text conversion")


def _print_json(payload: dict) -> None:
    import json

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
    _check_printable(via_loc, via_chern)
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
    if args.k_max < args.k_min:
        raise ValueError("k-max must be >= k-min")
    rels = build_relations(fpd, args.level, range(args.k_min, args.k_max + 1))
    if not args.raw:
        rels = [rel.primitive() for rel in rels]
    _check_printable(rels)
    code = 0
    out = []   # one JSON entry or one text line per relation
    for rel in rels:
        k = rel.k
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
            _check_printable(residual.coeff(e) if genus else residual)
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
    fpd.check_level(args.level)
    ms = [args.m] if args.m is not None else list(range(fpd.n + 1))
    polys = [hilbert_polynomial(fpd, args.level, m) for m in ms]
    hs = [(m, h, h.evaluate([Fraction(0)])) for m, h in zip(ms, polys)]
    _check_printable(hs)
    if args.json:
        _print_json({"hilbert": [{"m": m, "polynomial": str(h), "at_zero": str(h0)}
                                 for m, h, h0 in hs]})
    else:
        for m, h, h0 in hs:
            print(f"H_{m}(x) = {h}   (H_{m}(0) = {h0})")
    return 0


# Caps on one q-series request, so that every accepted request finishes
# well inside a minute.  Measured in a fresh process on a shared 2-core
# x86-64 VM (median of 3 runs), with the level at 11
# (phi = 10, the widest field below the level cap):
# - eisenstein at precision 60 takes 0.13 s for weight 20;
# - relations runs only at a level that divides g, which is n + 1 on CP^n,
#   so it is measured at that level: --verify at precision 60 takes 0.20 s
#   for CP^4 at level 5, k = 4..12, and, for k = n..20, 1.5 s for CP^7 at
#   level 8 and 2.6 s for CP^6 at level 7 (phi = 6), growing with k and n:
#   CP^7 at level 8, k = 7..24, takes 6.3 s in-process;
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
# The summed bit length of all weights of a fixed-point file bounds the
# lcm and gcds of the load-time q_I check: past the cap, 300 points of
# seven 150-bit weights (104 KB, 315 000 bits) took 5.2 s to be refused as
# no manifold's.  At the cap, with the other caps at their limits, the
# slowest admitted files measured are these: relations --verify at
# precision 60 takes 4.7 s at level 8, k = 7..20, on CP^7 with one weight
# of 1 154 bits (16 376 bits in all), and 5.2 s at level 7, k = 6..20, on
# CP^6 with one weight of 903 bits (10 960 bits; with one of 1 333 bits the
# output is refused as too long to print); genus at level 11 2.7 s,
# hilbert at level 2 1.3 s and chiy 0.15 s on 18 copies of (CP^1)^7 with
# weights +-1 (2 304 points), a disjoint union of manifolds.
FIXED_POINT_MAX_BITS = 16384  # summed bit_length() of every weight in the file


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

# Cap on one polytope request, so that it finishes well inside a minute:
# h_from_f's O(n^2) binomial sums run over n-bit numbers.  Medians of 3
# fresh processes, shared 2-core x86-64: the slowest admitted requests
# found have edges, --k0 and a palindromic h-vector of 4 000-digit entries
# (f entries up to 4 149 digits), and take 1.7 s at n = 500 with --k0 500
# (1.35 s with --k0 250); an f of 501 ones takes 0.5 s.  Past the cap, the
# same requests at n = 1 000 took 10 s (one run each), and an f of 2 000
# ones 57.5 s.
POLYTOPE_MAX_DIM = 500           # n = len(f) - 1 of the "f" entry


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
        from .fixedpoints import brief
        raise ValueError(f"{what} = {brief(value)} exceeds the cap {label} = {limit}")


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
    from .fixedpoints import partition_str

    orbit = _build_orbit(args)
    if args.crosscheck or args.partition is not None:
        _check_cap("orbit dimension n", orbit.n, "COADJOINT_MAX_ORBIT_DIM")
    if args.partition is not None:
        _check_cap("--partition degree |I| - n", sum(args.partition) - orbit.n,
                   "COADJOINT_MAX_EXTRA_DEGREES")
    fpd = orbit_fixed_points(orbit, args.xi) if args.xi is not None else None
    poly = None if args.partition is None else q_I_via_divided_diff(orbit, [args.partition])[0]
    if args.crosscheck and args.xi is None:
        raise ValueError("--crosscheck needs --xi")
    degrees = range(orbit.n, orbit.n + 1 + args.extra_degrees)
    checks = crosscheck_qI(orbit, degrees, args.xi) if args.crosscheck else []
    _check_printable(args.xi, fpd and fpd.points, poly, checks)
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
    from .polytope import betti_pattern, combinatorial_index, h_divisibility, h_from_f

    data = _read_json(args.input)
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    if "edges" not in data and "f" not in data:
        raise ValueError('input JSON needs an "f" or "edges" entry')
    if args.k0 is not None and "f" not in data:
        raise ValueError('--k0 needs an "f" entry')
    k0, index, f, h, report, pattern = args.k0, None, None, None, None, None
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
        _check_cap("dimension n = len(f) - 1", len(f) - 1, "POLYTOPE_MAX_DIM")
        h = h_from_f(f, len(f) - 1)
        if k0 is not None:
            report = h_divisibility(h, k0)
            pattern = betti_pattern(len(f) - 1, k0, h)
    _check_printable(index, f, h, report, pattern)
    if args.json:
        payload = {} if index is None else {"index": index}
        if h is not None:
            payload.update(n=len(f) - 1, f=f, h=h, palindromic=h == h[::-1])
        if report is not None:
            payload.update(divisibility=report, pattern=pattern)
        _print_json(payload)
    else:
        if index is not None:
            print(f"combinatorial index = {index}")
        if h is not None:
            print(f"f = {f}\nh = {h} (palindromic: {'yes' if h == h[::-1] else 'NO'})")
        if report is not None:
            print(f"1 + y + ... + y^{k0 - 1} divides: quotient {report['quotient']}"
                  if report["divisible"] else
                  f"NOT divisible by 1 + ... + y^{k0 - 1}: remainder {report['remainder']}")
            print(f"pattern: {pattern}")
    return 1 if report and (not report["divisible"] or pattern["ok"] is False) else 0


def cmd_selftest(args) -> int:
    from . import acceptance

    return 0 if acceptance.run_all(args.seed) else 1


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


def _common(p, with_prec=True) -> None:
    if with_prec:
        _add_int(p, "--prec", cap="QSERIES_MAX_PREC", default=DEFAULT_PREC,
                 help=f"q-series precision (default {DEFAULT_PREC})")
    p.add_argument("--json", action="store_true", help="JSON output")


def _level(p, help=None) -> None:
    _add_int(p, "level", low=2, cap="QSERIES_MAX_LEVEL", help=help)


def _eisenstein_parser(sub, name) -> None:
    p = sub.add_parser(name, help="q-expansion of G[k,N]")
    _add_int(p, "weight", cap="QSERIES_MAX_WEIGHT")
    _level(p)
    _common(p)
    p.set_defaults(fn=cmd_eisenstein)


def _qn_parser(sub, name) -> None:
    p = sub.add_parser(name, help="x-coefficients of the level-N expansion")
    _level(p)
    _add_int(p, "--x-order", cap="QN_MAX_X_ORDER", default=7)
    _common(p)
    p.set_defaults(fn=cmd_qn)


def _genus_parser(sub, name) -> None:
    p = sub.add_parser(name, help="level-N genus q-expansion, two routes")
    p.add_argument("fixed_points", help="fixed-point data JSON file")
    _level(p)
    _common(p)
    p.set_defaults(fn=cmd_genus)


def _chiy_parser(sub, name) -> None:
    p = sub.add_parser(name, help="chi_y genus from fixed-point counts")
    p.add_argument("fixed_points")
    _add_int(p, "--k0", help="also test divisibility at this index")
    _common(p, with_prec=False)
    p.set_defaults(fn=cmd_chiy)


def _relations_parser(sub, name) -> None:
    p = sub.add_parser(name, help="Eisenstein-product relations")
    p.add_argument("fixed_points")
    _level(p, "level N; it must divide g, the index bound of the circle "
              "action (see hilbert), and the file's asserted index, if it has one")
    _add_int(p, "k_min")
    _add_int(p, "k_max", cap="QSERIES_MAX_WEIGHT")
    p.add_argument("--verify", action="store_true",
                   help="check each relation vanishes as a q-series")
    p.add_argument("--raw", action="store_true",
                   help="keep raw localization coefficients (no content division)")
    _common(p)
    p.set_defaults(fn=cmd_relations)


def _hilbert_parser(sub, name) -> None:
    p = sub.add_parser(name, help="twisted-index polynomials H_m(x)")
    p.add_argument("fixed_points")
    _add_int(p, "level", help="index divisor for the line-bundle power; it must "
                              "divide g, the gcd of the differences of the weight "
                              "sums at the fixed points over the gcd of all "
                              "weights, and the file's asserted index, if it has one")
    p.add_argument("--m", type=int, help="single exterior-power degree")
    _common(p, with_prec=False)
    p.set_defaults(fn=cmd_hilbert)


def _coadjoint_parser(sub, name) -> None:
    p = sub.add_parser(
        name, help="orbit cosets, fixed points, crosschecks",
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
    _common(p, with_prec=False)
    p.set_defaults(fn=cmd_coadjoint)


def _polytope_parser(sub, name) -> None:
    p = sub.add_parser(name, help="h-vector, index, divisibility, pattern")
    p.add_argument("input", help='JSON file with "f" and/or "edges"')
    _add_int(p, "--k0", help="index to test against (default: from edges)")
    _common(p, with_prec=False)
    p.set_defaults(fn=cmd_polytope)


def _selftest_parser(sub, name) -> None:
    p = sub.add_parser(name, help="run the acceptance suite",
                       description="Run the ten acceptance criteria; the "
                                   "report goes to stdout and each criterion's "
                                   "wall-clock time to stderr.")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=cmd_selftest)


# Every subcommand by name, in the order --help lists them, with the
# function that adds its subparser: the one place the names are declared.
_SUBCOMMANDS = {"eisenstein": _eisenstein_parser, "qn": _qn_parser, "genus": _genus_parser,
                "chiy": _chiy_parser, "relations": _relations_parser,
                "hilbert": _hilbert_parser, "coadjoint": _coadjoint_parser,
                "polytope": _polytope_parser, "selftest": _selftest_parser}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Given the name of a subcommand it adds that
    subparser alone, which parses, helps and refuses as the full parser
    does; given no name, or any other text (`-h`, an unknown name), it adds
    all of them, so that help and errors list every subcommand."""
    parser = argparse.ArgumentParser(
        prog="genus-forge",
        description="Exact arithmetic for level-N elliptic genera: Eisenstein "
                    "series, fixed-point localization, relations, and the "
                    "polytope combinatorics they constrain.")
    one = command in _SUBCOMMANDS
    # with one subparser, the usage that a top-level error prints (an
    # unrecognized argument) still names every subcommand; the full parser
    # keeps the default, as its missing-subcommand error names the metavar
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_SUBCOMMANDS) + "}" if one else None)
    for name in [command] if one else _SUBCOMMANDS:
        _SUBCOMMANDS[name](sub, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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


gc.freeze()   # start-up objects skip every collection, the one at exit too

if __name__ == "__main__":
    sys.exit(main())
