"""Exact arithmetic for elliptic genera of level N.

Everything is computed twice, by independent routes, and the routes must
agree exactly: Eisenstein q-expansions against an infinite-product
expansion, localization sums against Chern-number genera, divided
differences against fixed-point data, fixed-point Hilbert polynomials
against closed forms.  All coefficients are rationals or cyclotomic
numbers; there is no floating point anywhere.
"""

from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial, euler_phi
from .series import TruncSeries, bernoulli, exp_series
from .sparsepoly import SparsePoly
from .symfunc import (GenusSpec, all_partitions, chi_y_power_series,
                      elementary_sym_poly, elementary_values, f_lambda_symbolic,
                      f_lambda_values, genus_polynomials, genus_value,
                      monomial_sym_eval, monomial_sym_poly, monomial_to_elementary,
                      partition_str, partitions_at_most)
from .modular import (QnExpansion, classical_x_series, eisenstein_qexp,
                      f_lambda_table, qn_expansion_via_product, series_from_json,
                      series_to_json, verify_lemma_eisenstein)
from .localization import (FixedPointData, Relation, action_type, build_relation,
                           chern_number, chi_y_from_counts,
                           cpn_fixed_points, cpn_hilbert_closed_form,
                           divides_chi_y, eisenstein_product,
                           equivariant_index_limit, general_relation_cpn,
                           genus_qexp, genus_via_chern, hilbert_polynomial,
                           product_fixed_points, random_product_of_projective_spaces,
                           relation_coefficient, verify_relation)
from .coadjoint import (OrbitSpec, RootSystem, WeylElement, cpn_orbit,
                        crosscheck_qI, divided_difference, divided_difference_word,
                        grassmannian_orbit, orbit_fixed_points,
                        q_I_via_divided_diff, weyl_group)
from .polytope import (FHVectors, affine_length, betti_pattern, combinatorial_index,
                       cube_edges, cube_f_vector, f_from_h, h_divisibility,
                       h_from_f, product_f_vector, simplex_edges, simplex_f_vector)
from .acceptance import run_all as run_acceptance

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber", "cyclotomic_polynomial", "euler_phi",
    "TruncSeries", "bernoulli", "exp_series",
    "SparsePoly",
    "GenusSpec", "all_partitions", "chi_y_power_series", "elementary_sym_poly",
    "elementary_values", "f_lambda_symbolic", "f_lambda_values",
    "genus_polynomials", "genus_value", "monomial_sym_eval", "monomial_sym_poly",
    "monomial_to_elementary", "partition_str", "partitions_at_most",
    "QnExpansion", "classical_x_series", "eisenstein_qexp", "f_lambda_table",
    "qn_expansion_via_product", "series_from_json", "series_to_json",
    "verify_lemma_eisenstein",
    "FixedPointData", "Relation", "action_type", "build_relation",
    "chern_number", "chi_y_from_counts", "cpn_fixed_points",
    "cpn_hilbert_closed_form", "divides_chi_y", "eisenstein_product",
    "equivariant_index_limit", "general_relation_cpn", "genus_qexp",
    "genus_via_chern", "hilbert_polynomial", "product_fixed_points",
    "random_product_of_projective_spaces", "relation_coefficient",
    "verify_relation",
    "OrbitSpec", "RootSystem", "WeylElement", "cpn_orbit", "crosscheck_qI",
    "divided_difference", "divided_difference_word", "grassmannian_orbit",
    "orbit_fixed_points", "q_I_via_divided_diff", "weyl_group",
    "FHVectors", "affine_length", "betti_pattern", "combinatorial_index",
    "cube_edges", "cube_f_vector", "f_from_h", "h_divisibility", "h_from_f",
    "product_f_vector", "simplex_edges", "simplex_f_vector",
    "run_acceptance",
    "__version__",
]
