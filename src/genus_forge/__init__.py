"""Exact arithmetic for elliptic genera of level N.

Everything is computed twice, by independent routes, and the routes must
agree exactly: Eisenstein q-expansions against an infinite-product
expansion, localization sums against Chern-number genera, divided
differences against fixed-point data, fixed-point Hilbert polynomials
against closed forms.  All coefficients are rationals or cyclotomic
numbers; there is no floating point anywhere.
"""

# Seed of the acceptance suite's random draws (`genus-forge selftest --seed`),
# kept here so that the CLI parser reads it without loading the suite.
DEFAULT_SEED = 2026
