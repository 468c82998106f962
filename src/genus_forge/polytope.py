"""Face-vector combinatorics for simple lattice polytopes.

The h-vector is the alternating binomial transform of the f-vector; for a
smooth projective toric manifold it lists the even Betti numbers.  The
combinatorial index is the gcd of the affine lengths of the edges.  The
divisibility test and the Betti patterns tie these two together: if the
index is k0 then 1 + y + ... + y^(k0-1) divides the h-polynomial, and for
k0 close to n+1 the whole vector is pinned down up to one parameter.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Sequence


def h_from_f(f: Sequence[int], n: int) -> list[int]:
    """h_j = sum_r (-1)^(j-r) C(n-r, n-j) f_{n-r}."""
    if len(f) != n + 1:
        raise ValueError(f"f-vector needs {n + 1} entries, got {len(f)}")
    return [sum((-1) ** (j - r) * comb(n - r, n - j) * f[n - r]
                for r in range(j + 1))
            for j in range(n + 1)]


def f_from_h(h: Sequence[int], n: int) -> list[int]:
    """Invert h_from_f by forward substitution (the transform is triangular:
    h_j touches f_n, ..., f_{n-j} and f_{n-j} enters with coefficient 1)."""
    if len(h) != n + 1:
        raise ValueError(f"h-vector needs {n + 1} entries, got {len(h)}")
    f = [0] * (n + 1)
    for j in range(n + 1):
        partial = sum((-1) ** (j - r) * comb(n - r, n - j) * f[n - r]
                      for r in range(j))
        f[n - j] = h[j] - partial
    return f


class FHVectors:
    """An f-vector together with its h-vector; palindromy is reported,
    not assumed."""

    __slots__ = ("n", "f", "h")

    def __init__(self, n: int, f: Sequence[int]) -> None:
        f = [int(v) for v in f]
        if n < 0:
            raise ValueError("an f-vector has at least one entry")
        if len(f) != n + 1:
            raise ValueError(f"f-vector needs {n + 1} entries, got {len(f)}")
        if f[n] != 1:
            raise ValueError("f_n must be 1 (the polytope itself)")
        if any(v < 0 for v in f):
            raise ValueError("face counts must be non-negative")
        self.n = n
        self.f = f
        self.h = h_from_f(f, n)

    def palindromic(self) -> bool:
        return self.h == self.h[::-1]

    def describe(self) -> dict:
        return {"n": self.n, "f": list(self.f), "h": list(self.h),
                "palindromic": self.palindromic()}

    def __repr__(self) -> str:
        return f"FHVectors(n={self.n}, f={self.f}, h={self.h})"


def simplex_f_vector(n: int) -> list[int]:
    return [comb(n + 1, j + 1) for j in range(n + 1)]


def cube_f_vector(n: int) -> list[int]:
    return [comb(n, j) * 2 ** (n - j) for j in range(n + 1)]


def product_f_vector(f1: Sequence[int], f2: Sequence[int]) -> list[int]:
    """Faces of a product polytope: the convolution of face counts."""
    n1, n2 = len(f1) - 1, len(f2) - 1
    out = [0] * (n1 + n2 + 1)
    for i, a in enumerate(f1):
        for j, b in enumerate(f2):
            out[i + j] += a * b
    return out


# -- lattice edges ---------------------------------------------------------------------


def affine_length(p: Sequence[int], q: Sequence[int]) -> int:
    """gcd of the coordinate differences; the edge is affine_length many
    primitive steps long."""
    if len(p) != len(q):
        raise ValueError("endpoints live in different dimensions")
    g = gcd(*(a - b for a, b in zip(p, q)))
    if g == 0:
        raise ValueError("edge endpoints coincide")
    return g


def combinatorial_index(edges: Sequence[tuple[Sequence[int], Sequence[int]]]) -> int:
    if not edges:
        raise ValueError("need at least one edge")
    g = 0
    for p, q in edges:
        g = gcd(g, affine_length(p, q))
    return g


def simplex_edges(n: int, dilation: int = 1) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Edges of dilation * conv{0, e_1, ..., e_n}."""
    verts = [tuple(0 for _ in range(n))]
    for i in range(n):
        v = [0] * n
        v[i] = dilation
        verts.append(tuple(v))
    return [(verts[i], verts[j])
            for i in range(len(verts)) for j in range(i + 1, len(verts))]


def cube_edges(n: int, dilation: int = 1) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    verts = []
    for mask in range(2 ** n):
        verts.append(tuple(dilation * ((mask >> i) & 1) for i in range(n)))
    out = []
    for i, p in enumerate(verts):
        for q in verts[i + 1:]:
            if sum(1 for a, b in zip(p, q) if a != b) == 1:
                out.append((p, q))
    return out


# -- divisibility and Betti patterns ---------------------------------------------------


def h_divisibility(h: Sequence[int], k0: int) -> dict:
    """Divide sum h_j y^j by 1 + y + ... + y^(k0-1), reporting the quotient
    coefficient vector or the remainder that obstructs it."""
    if k0 < 1:
        raise ValueError("k0 must be positive")
    rem = list(h)
    quot = [0] * max(len(rem) - k0 + 1, 0)
    for top in range(len(rem) - 1, k0 - 2, -1):
        c = rem[top]
        if not c:
            continue
        quot[top - k0 + 1] = c
        for i in range(k0):
            rem[top - i] -= c
    rem = rem[:k0 - 1]
    if any(rem):
        return {"divisible": False, "remainder": rem}
    return {"divisible": True, "quotient": quot}


def _pattern_for(case: int, n: int, m: int) -> list[int]:
    """The predicted even Betti numbers: the quotient template convolved
    with the all-ones vector of length k0.  (The flat vectors usually
    quoted for these cases are this product written out for large n; the
    product form is what the divisibility argument actually gives and it
    stays correct when the quotient is short.)"""
    template, k0 = {1: ([1], n + 1), 2: ([1, 1], n),
                    3: ([1, m, 1], n - 1), 4: ([1, m, m, 1], n - 2)}[case]
    return product_f_vector(template, [1] * k0)


def betti_pattern(n: int, k0: int, b: Sequence[int]) -> dict:
    """Match b against the family forced by the index k0.

    k0 = n+1 -> all ones; k0 = n -> (1,2,...,2,1); k0 = n-1 ->
    [1,m,1] * (1..1); k0 = n-2 -> [1,m,m,1] * (1..1), where * is
    convolution with the length-k0 all-ones vector.
    """
    b = [int(v) for v in b]
    if len(b) != n + 1:
        raise ValueError(f"need {n + 1} Betti entries, got {len(b)}")
    if b[0] != 1 or b[n] != 1:
        raise ValueError("b_0 and b_2n must both be 1")
    if b != b[::-1]:
        raise ValueError("Betti vector must be palindromic")
    if k0 > n + 1:
        return {"ok": False, "case": None,
                "witness": f"index {k0} exceeds n+1 = {n + 1}"}
    if k0 < max(n - 2, 1):
        return {"ok": None, "case": None,
                "note": "no pattern is asserted for k0 < n-2"}
    case = {n + 1: 1, n: 2, n - 1: 3, n - 2: 4}[k0]
    if case <= 2:
        expected = _pattern_for(case, n, 0)
        if expected == b:
            return {"ok": True, "case": case, "m": None}
        return {"ok": False, "case": case,
                "witness": {"expected": expected, "got": b}}
    # the parameter is read off the first entry the template can reach
    m = b[1] - 1 if k0 >= 2 else b[1]
    if m >= 0 and _pattern_for(case, n, m) == b:
        return {"ok": True, "case": case, "m": m}
    return {"ok": False, "case": case,
            "witness": {"expected": _pattern_for(case, n, max(m, 0)),
                        "got": b}}
