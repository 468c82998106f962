"""Outside-in layer spans for one genus-forge process.

`install()` wraps the public functions of each layer's module and the
kernel methods, so every call becomes a span named `<module>.<name>`.
Spans are folded into per-name and per-module totals as they close (a
selftest closes about 140 000 of them), kept in memory, and written
once, as JSON, when the process ends.  For each span name and each module
the totals are:

- calls: spans opened;
- busy: time inside the outermost span of that name (or module), so
  recursion and nesting are not counted twice;
- self: span time minus the time of the child spans it encloses.

`covered` is the time inside top-level spans, for the coverage ratio.
The package is imported by the caller before `install()`; this module
imports nothing from it at load time, so the harness can read the metric
table below without loading the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path).  One span name may cover several
# functions: the loading step is `from_json` plus `validate`.
TARGETS = (
    ("cli.build_parser", "cli", "build_parser"),
    ("localization.load", "localization", "FixedPointData.from_json"),
    ("localization.load", "localization", "FixedPointData.validate"),
    *((f"localization.{f}", "localization", f) for f in (
        "eisenstein_product", "verify_relation", "genus_qexp", "genus_via_chern",
        "general_relation_cpn", "relation_coefficient", "hilbert_polynomial",
        "build_relation", "chern_number", "chi_y_from_counts", "cpn_fixed_points",
        "equivariant_index_limit", "divides_chi_y", "cpn_hilbert_closed_form",
        "random_product_of_projective_spaces", "product_fixed_points")),
    *((f"modular.{f}", "modular", f) for f in (
        "eisenstein_qexp", "qn_expansion_via_product", "f_lambda_table",
        "verify_lemma_eisenstein", "classical_x_series", "series_to_json")),
    ("series.mul", "series", "TruncSeries.__mul__"),
    ("series.inverse", "series", "TruncSeries.inverse"),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__"),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse"),
    ("sparsepoly.mul", "sparsepoly", "SparsePoly.__mul__"),
    ("sparsepoly.div", "sparsepoly", "SparsePoly.divmod_by"),
    ("sparsepoly.exact_div", "sparsepoly", "SparsePoly.exact_div"),
    *((f"symfunc.{f}", "symfunc", f) for f in (
        "monomial_sym_eval", "monomial_sym_poly", "elementary_sym_poly",
        "elementary_values", "monomial_to_elementary", "genus_polynomials",
        "f_lambda_symbolic", "f_lambda_values", "genus_value", "chi_y_power_series")),
    ("coadjoint.weyl_element", "coadjoint", "WeylElement.__init__"),
    ("coadjoint.orbit_spec", "coadjoint", "OrbitSpec.__init__"),
    *((f"coadjoint.{f}", "coadjoint", f) for f in (
        "weyl_group", "divided_difference", "divided_difference_word",
        "q_I_via_divided_diff", "orbit_fixed_points", "crosscheck_qI",
        "cpn_orbit", "grassmannian_orbit")),
    *((f"polytope.{f}", "polytope", f) for f in (
        "h_from_f", "f_from_h", "simplex_f_vector", "cube_f_vector",
        "product_f_vector", "affine_length", "combinatorial_index",
        "simplex_edges", "cube_edges", "h_divisibility", "betti_pattern")),
)

# Per-layer metrics of the traced run: name -> (unit, better, the
# end-to-end metric and workloads it should move).  A `.calls`/`.count`
# metric counts spans, `.busy_s` is outermost span time and `.self_s` is
# self time, for a span name or, when the prefix is a module, for the
# whole module.  All are means per traced request.
_Q = "requests_per_s on qseries and selftest; no change on orbits"
_O = "requests_per_s and latency_tail_s on orbits, requests_per_s on selftest; no change on qseries"
_S = "requests_per_s on selftest"
LAYER_METRICS = {
    "cli.startup_s": ("s", "lower", "setup_s on all; latency_p50_s on qseries and orbits"),
    "localization.load.busy_s": ("s", "lower", "latency_p50_s on qseries"),
    "localization.eisenstein_product.calls": ("count", "lower", _Q),
    "localization.eisenstein_product.self_s": ("s", "lower", _Q),
    "localization.verify_relation.busy_s": ("s", "lower", _Q),
    "localization.genus_qexp.busy_s": ("s", "lower", _Q),
    "localization.genus_via_chern.busy_s": ("s", "lower", _Q),
    "localization.general_relation_cpn.busy_s": ("s", "lower", _Q),
    "modular.eisenstein_qexp.calls": ("count", "lower", _Q),
    "modular.eisenstein_qexp.self_s": ("s", "lower", _Q),
    "modular.eisenstein_qexp.hit_ratio": ("ratio", "higher", _Q),
    "modular.qn_expansion_via_product.busy_s": ("s", "lower", _Q),
    "modular.f_lambda_table.busy_s": ("s", "lower", _Q),
    "series.mul.count": ("count", "lower", _Q),
    "series.inverse.count": ("count", "lower", _Q),
    "series.self_s": ("s", "lower", _Q),
    "cyclotomic.mul.count": ("count", "lower", _Q),
    "cyclotomic.inverse.count": ("count", "lower", _Q),
    "cyclotomic.self_s": ("s", "lower", _Q),
    "localization.relation_coefficient.calls": ("count", "lower", "latency_p50_s on qseries"),
    "localization.relation_coefficient.self_s": ("s", "lower", "latency_p50_s on qseries"),
    **{f"symfunc.{m}": (u, "lower", "latency_tail_s on orbits (SparsePoly values) and "
                                    "latency_p50_s on qseries (Fraction values)")
       for m, u in (("monomial_sym_eval.calls", "count"),
                    ("monomial_sym_eval.self_s", "s"), ("self_s", "s"))},
    "coadjoint.weyl_element.count": ("count", "lower", _O),
    "coadjoint.weyl_group.busy_s": ("s", "lower", _O),
    "coadjoint.orbit_spec.busy_s": ("s", "lower", _O),
    "coadjoint.q_I_via_divided_diff.calls": ("count", "lower", _O),
    "coadjoint.q_I_via_divided_diff.busy_s": ("s", "lower", _O),
    "coadjoint.divided_difference.calls": ("count", "lower", _O),
    "coadjoint.orbit_fixed_points.busy_s": ("s", "lower", _O),
    "sparsepoly.mul.count": ("count", "lower", _O),
    "sparsepoly.div.count": ("count", "lower", _O),
    "sparsepoly.self_s": ("s", "lower", _O),
    "localization.hilbert_polynomial.busy_s": ("s", "lower", _S),
    "polytope.busy_s": ("s", "lower", _S),
    **{f"acceptance.c{i}.busy_s": ("s", "lower", _S) for i in range(1, 11)},
    "trace.overhead_ratio": ("ratio", "lower", "none: traced wall / untraced wall - 1"),
    "trace.coverage": ("ratio", "higher", "none: share of request wall time in a named span"),
}


class Tracer:
    """Per-name and per-module span totals of one process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}    # name -> [calls, busy_ns, self_ns, depth]
        self.modules: dict[str, list] = {}  # module -> [busy_ns, self_ns, depth]
        self.stack: list[list] = []         # child time of each open span
        self.covered = [0]
        self.caches: dict[str, object] = {}

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0, 0, 0])
        mstats = self.modules.setdefault(name.split(".", 1)[0], [0, 0, 0])
        stack, covered, clock = self.stack, self.covered, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stats[0] += 1
            stats[3] += 1
            mstats[2] += 1
            child = [0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[3] -= 1
                mstats[2] -= 1
                own = elapsed - child[0]
                stats[2] += own
                mstats[1] += own
                if not stats[3]:
                    stats[1] += elapsed
                if not mstats[2]:
                    mstats[0] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    covered[0] += elapsed
        return span

    def dump(self, path: str, import_ns: int) -> None:
        data = {"import_ns": import_ns, "covered_ns": self.covered[0],
                "spans": {k: v[:3] for k, v in self.spans.items() if v[0]},
                "modules": {k: v[:2] for k, v in self.modules.items()},
                "caches": {k: list(fn.cache_info()[:2]) for k, fn in self.caches.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _rebind(namespaces, old, new) -> None:
    """Point every name bound to `old` at `new`, in modules (which covers
    names copied by `from ... import`) and class dicts (which covers
    aliases such as `__rmul__ = __mul__`)."""
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


def install() -> Tracer:
    """Wrap every target of the already-imported genus_forge package."""
    from genus_forge import acceptance
    tracer = Tracer()
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "genus_forge" or k.startswith("genus_forge."))]
    for name, module, path in TARGETS:
        owner = sys.modules[f"genus_forge.{module}"]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        old = vars(owner)[attr]
        if isinstance(old, classmethod):
            new = classmethod(tracer.wrap(name, old.__func__))
        else:
            new = tracer.wrap(name, old)
            if hasattr(old, "cache_info"):
                tracer.caches[name] = old
        _rebind([owner] if cls_path else modules, old, new)
    # run_all iterates a tuple that holds the criterion functions themselves.
    acceptance.CRITERIA = tuple(
        (number, title, tracer.wrap(f"acceptance.c{number}", fn))
        for number, title, fn in acceptance.CRITERIA)
    return tracer
