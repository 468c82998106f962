"""Plain-text rendering shared by the value types."""

from __future__ import annotations

from typing import Sequence


def join_terms(terms: Sequence[str]) -> str:
    """'a + b - c' from ['a', 'b', '-c']; the empty sum renders as '0'."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in terms[1:])
