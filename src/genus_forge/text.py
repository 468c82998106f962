"""Plain-text rendering: the one printed form of a sum, which every value
type's text form (and `Relation.render`) builds from `power` (a monomial
factor), `term` (a coefficient times a monomial) and `join_terms`."""

from __future__ import annotations

from typing import Sequence


def power(var: str, e: int) -> str:
    """'x' for e = 1, 'x^e' above; e = 0 is the empty monomial ''."""
    if e == 0:
        return ""
    return var if e == 1 else f"{var}^{e}"


def term(coeff: str, body: str) -> str:
    """One summand from a coefficient's text and a monomial: the coefficient
    alone for an empty monomial, a bare sign for 1 and -1, else 'c*body'."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff}*{body}"


def join_terms(terms: Sequence[str]) -> str:
    """'a + b - c' from ['a', 'b', '-c']; the empty sum renders as '0'."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in terms[1:])
