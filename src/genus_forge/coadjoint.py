"""Coadjoint orbits: Weyl combinatorics and divided-difference pushforwards.

Supported root systems are type A_m (roots x_i - x_j in m+1 coordinates)
and type B_m (roots +-x_i +- x_j and +-x_i in m coordinates).  An orbit is
cut out by a subset J of the simple roots; its fixed points under a
generic subcircle xi are indexed by the minimal-length coset
representatives of W/W_J, with integer weights <w(alpha), xi> for alpha
ranging over the positive roots outside the span of J.

The same numbers q_I admit a second, purely algebraic route: apply the
divided-difference operator of the longest coset representative, in closed
form on monomials, to the monomial symmetric polynomial m_I evaluated at
those roots.  `crosscheck_qI` insists the two routes agree exactly, on a
batch of partitions at one direction: the fixed points are built once,
and each route evaluates every m_I of the batch from one table of its own
(`symfunc.monomial_sym_eval` here, `relation_coefficients` in
`fixedpoints`).

Weyl elements are stored as signed permutations (w(e_i) = s_i * e_{p_i}).
An orbit enumerates only the minimal coset representatives W^J, level by
level from the identity, each carrying its reduced word, so it builds
|W/W_J| elements: 5 for CP^4, 7 for CP^6.  With J empty that is all of W:
|W(A_m)| = (m+1)! and |W(B_m)| = 2^m m!, 120 at A_4 and 48 at B_3 but
40320 at A_7.  The q_I of a batch share one table of m_R over the n roots
outside <J>, and each costs n divided differences; both grow quickly with
n and |I|.  Both run on
`SparsePoly` with `int` coefficients, as the roots and the closed form are
integral, so q_I at an integer xi is an integer too.  The CLI
caps the rank, n and |I| - n (`COADJOINT_MAX_*` in `genus_forge.cli`) so
that each accepted request finishes well inside a minute.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Optional, Sequence

from .fixedpoints import (FixedPointData, check_partition, partition_str, partitions_at_most,
                          relation_coefficients)
from .sparsepoly import SparsePoly
from .symfunc import monomial_sym_eval


class RootSystem:
    __slots__ = ("family", "rank", "dim")

    def __init__(self, family: str, rank: int) -> None:
        if family not in ("A", "B"):
            raise ValueError("root system family must be 'A' or 'B'")
        if rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "dim", rank + 1 if family == "A" else rank)

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def __eq__(self, other):
        return (isinstance(other, RootSystem) and self.family == other.family
                and self.rank == other.rank)

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self) -> str:
        return f"{self.family}{self.rank}"

    def variables(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.dim + 1))

    def simple_roots(self) -> list[tuple[int, ...]]:
        d = self.dim
        roots = []
        for i in range(self.rank - 1 if self.family == "B" else self.rank):
            v = [0] * d
            v[i], v[i + 1] = 1, -1
            roots.append(tuple(v))
        if self.family == "B":
            v = [0] * d
            v[d - 1] = 1
            roots.append(tuple(v))
        return roots

    def positive_roots(self) -> list[tuple[int, ...]]:
        d = self.dim
        roots = []
        for i in range(d):
            for j in range(i + 1, d):
                v = [0] * d
                v[i], v[j] = 1, -1
                roots.append(tuple(v))
        if self.family == "B":
            for i in range(d):
                for j in range(i + 1, d):
                    v = [0] * d
                    v[i], v[j] = 1, 1
                    roots.append(tuple(v))
            for i in range(d):
                v = [0] * d
                v[i] = 1
                roots.append(tuple(v))
        return roots

    def root_polynomial(self, root: Sequence[int]) -> SparsePoly:
        vs = self.variables()
        terms = {}
        for i, c in enumerate(root):
            if c:
                exp = [0] * self.dim
                exp[i] = 1
                terms[tuple(exp)] = c
        return SparsePoly(vs, terms)

    def simple_reflection_images(self, j: int) -> tuple[tuple[int, int], ...]:
        """s_j as a signed permutation, 1-based simple index."""
        if not 1 <= j <= self.rank:
            raise ValueError(f"no simple root with index {j}")
        images = [(i, 1) for i in range(self.dim)]
        if self.family == "B" and j == self.rank:
            images[self.dim - 1] = (self.dim - 1, -1)
        else:
            images[j - 1] = (j, 1)
            images[j] = (j - 1, 1)
        return tuple(images)


@lru_cache(maxsize=None)
def _negative_root_set(rs: RootSystem) -> frozenset:
    return frozenset(tuple(-c for c in root) for root in rs.positive_roots())


class WeylElement:
    """A (signed) permutation w(e_i) = s_i * e_{p_i}.

    `word` is a reduced word for the elements listed by `weyl_group`, and
    None for those built by `compose` or from bare images.
    """

    __slots__ = ("rs", "images", "word")

    def __init__(self, rs: RootSystem, images: Sequence[tuple[int, int]],
                 word: Optional[tuple[int, ...]] = None) -> None:
        self.rs = rs
        self.images = tuple((int(p), int(s)) for p, s in images)
        self.word = None if word is None else tuple(word)

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, [(i, 1) for i in range(rs.dim)], word=())

    @classmethod
    def simple(cls, rs: RootSystem, j: int) -> "WeylElement":
        return cls(rs, rs.simple_reflection_images(j), word=(j,))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other (group product self * other)."""
        return WeylElement(self.rs, _compose_images(self.images, other.images))

    def length(self) -> int:
        neg = _negative_root_set(self.rs)
        return sum(1 for root in self.rs.positive_roots()
                   if _apply_images(self.images, root) in neg)

    def label(self) -> str:
        """The reduced word as s2*s1, or e for the identity."""
        return "*".join(f"s{j}" for j in self.word) or "e"

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.rs == other.rs
                and self.images == other.images)

    def __hash__(self):
        return hash((self.rs, self.images))

    def __repr__(self) -> str:
        return f"<{self.rs} {self.images if self.word is None else self.label()}>"


def _compose_images(outer, inner) -> tuple[tuple[int, int], ...]:
    """Images of outer * inner: inner maps e_i to s e_p, then outer e_p."""
    return tuple([(outer[p][0], s * outer[p][1]) for p, s in inner])


def _apply_images(images, v: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(images)
    for (p, s), c in zip(images, v):
        out[p] += s * c
    return tuple(out)


def weyl_group(rs: RootSystem, J: Sequence[int] = ()) -> tuple[WeylElement, ...]:
    """The minimal-length representatives W^J of W/W_J, each with a reduced
    word, ordered by length and then by images; all of W when J is empty.

    Level k+1 is grown from level k by multiplying on the left by simple
    reflections, keeping s*u when it is longer than u and has no right
    descent in J.  This reaches all of W^J, because deleting the first
    letter of a reduced word of an element of W^J leaves one of an element
    of W^J (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4), and it
    means s*u is shorter than u exactly when it lies on level k-1.

    The word is the one that strips the smallest right descent first: the
    least reduced word read right to left.  Deleting its first letter
    leaves the same kind of word for the shorter element, so it is the
    least, read right to left, of (j,) + word(u) over the parents u.
    """
    neg = _negative_root_set(rs)
    simples = rs.simple_roots()
    J_roots = [simples[j - 1] for j in J]
    reflections = [rs.simple_reflection_images(j) for j in range(1, rs.rank + 1)]
    previous: dict = {}
    level = {WeylElement.identity(rs).images: ()}     # images -> reversed word
    reps = []
    while level:
        reps += [WeylElement(rs, images, rev[::-1])
                 for images, rev in sorted(level.items())]
        nxt: dict = {}
        for images, rev in level.items():
            for j, reflection in enumerate(reflections, start=1):
                w = _compose_images(reflection, images)
                if w in previous or any(_apply_images(w, a) in neg for a in J_roots):
                    continue
                cand = rev + (j,)
                if w not in nxt or cand < nxt[w]:
                    nxt[w] = cand
        previous, level = level, nxt
    return tuple(reps)


def _weyl_order(family: str, rank: int) -> int:
    return factorial(rank + 1) if family == "A" else 2 ** rank * factorial(rank)


class OrbitSpec:
    """A coadjoint orbit given by a root system and a subset J of simples."""

    __slots__ = ("rs", "J", "complement_roots", "cosets", "longest_rep", "n",
                 "_q_by_partition")

    def __init__(self, rs: RootSystem, J: Iterable[int]) -> None:
        self.rs = rs
        # q_I via divided differences, keyed by I; lives and dies with the orbit
        self._q_by_partition: dict[tuple[int, ...], SparsePoly] = {}
        self.J = tuple(sorted(set(int(j) for j in J)))
        if any(not 1 <= j <= rs.rank for j in self.J):
            raise ValueError("J must consist of simple-root indices")
        span = _span_positive_roots(rs, self.J)
        self.complement_roots = [r for r in rs.positive_roots() if r not in span]
        self.n = len(self.complement_roots)
        self.cosets = weyl_group(rs, self.J)
        # |W| / |W_J|; W_J is a product over the runs of consecutive indices
        # in J, each of type A except a type-B run that ends at the rank
        expected, run = _weyl_order(rs.family, rs.rank), 0
        for j in self.J:
            run += 1
            if j + 1 not in self.J:
                expected //= _weyl_order(
                    "B" if rs.family == "B" and j == rs.rank else "A", run)
                run = 0
        if len(self.cosets) != expected:
            raise ArithmeticError("coset representative count mismatch")
        self.longest_rep = self.cosets[-1]
        if self.longest_rep.length() != self.n:
            raise ArithmeticError("longest representative length != number of "
                                  "roots outside <J>")

    def __repr__(self) -> str:
        return f"<OrbitSpec {self.rs} J={list(self.J)} n={self.n}>"

    def to_json(self) -> dict:
        return {"family": self.rs.family, "rank": self.rs.rank,
                "J": list(self.J)}


def _span_positive_roots(rs: RootSystem, J: Sequence[int]) -> set:
    """Positive roots lying in the span of the simple roots in J.

    In types A and B the k-th simple root is e_k - e_(k+1), or e_m for
    k = m in type B, so the coefficient of simple root k in a root r is the
    prefix sum r_1 + ... + r_k (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plates I-II).  A root lies in the span of J exactly when every
    nonzero prefix sum has its index in J.
    """
    J = set(J)
    return {root for root in rs.positive_roots()
            if all(k in J for k in range(1, rs.rank + 1) if sum(root[:k]))}


def cpn_orbit(n: int) -> OrbitSpec:
    """CP^n as the A_n orbit with J = all simples but the first."""
    return OrbitSpec(RootSystem("A", n), range(2, n + 1))


def grassmannian_orbit(m: int) -> OrbitSpec:
    """Oriented 2-planes in R^(2m+1): the B_m orbit with J = {2..m}."""
    return OrbitSpec(RootSystem("B", m), range(2, m + 1))


# -- divided differences ---------------------------------------------------------------


def divided_difference(rs: RootSystem, j: int, poly: SparsePoly) -> SparsePoly:
    """(P - s_j P) / alpha_j, term by term in closed form, so nothing is divided.

    For alpha_j = x_i - x_(i+1) and a = exp_i > b = exp_(i+1), x_i^a x_(i+1)^b
    goes to (x_i x_(i+1))^b h_(a-b-1)(x_i, x_(i+1)), h_d the complete
    homogeneous polynomial; for a < b to minus that with a and b swapped; for
    a = b to 0.  For the type-B short root alpha_m = x_m, x_m^a goes to
    2 x_m^(a-1) for odd a and to 0 for even a (Bernstein-Gelfand-Gelfand 1973).
    """
    if not 1 <= j <= rs.rank:
        raise ValueError(f"no simple root with index {j}")
    i, short, out = j - 1, rs.family == "B" and j == rs.rank, {}
    for exp, c in poly.terms.items():
        if not short:
            a, b = exp[i], exp[i + 1]
            if a == b:
                continue
            if a < b:
                a, b, c = b, a, -c
            head, tail = exp[:i], exp[i + 2:]
            for k in range(a - b):      # (x_i x_(i+1))^b x_i^k x_(i+1)^(a-b-1-k)
                e = head + (b + k, a - 1 - k) + tail
                out[e] = out.get(e, 0) + c
        elif exp[i] % 2:                # x_m^a -> x_m^(a-1) is one-to-one on odd a
            out[exp[:i] + (exp[i] - 1,)] = 2 * c
    return SparsePoly._raw(poly.vars, out)


def divided_difference_word(rs: RootSystem, word: Sequence[int],
                            poly: SparsePoly) -> SparsePoly:
    """Compose along a reduced word, rightmost letter applied first."""
    for j in reversed(tuple(word)):
        poly = divided_difference(rs, j, poly)
    return poly


def q_I_via_divided_diff(orbit: OrbitSpec,
                         partitions: Sequence[Sequence[int]]) -> list[SparsePoly]:
    """For each I in partitions, the pushforward of m_I(roots outside <J>)
    along the longest coset representative; degree |I| - n, constant for
    |I| = n.

    The m_I of the partitions not yet on the orbit come from one
    `monomial_sym_eval` table over the roots.  Each q_I is kept on the
    orbit: it does not depend on the circle direction, so a crosscheck at
    several directions reuses it.
    """
    parts = [check_partition(I) if I else () for I in partitions]
    missing = [I for I in dict.fromkeys(parts) if I not in orbit._q_by_partition]
    if missing:
        values = [orbit.rs.root_polynomial(r) for r in orbit.complement_roots]
        if any(len(I) > len(values) for I in missing):
            raise ValueError("partition has more parts than available roots")
        for I, poly in zip(missing, monomial_sym_eval(missing, values)):
            if not isinstance(poly, SparsePoly):
                poly = SparsePoly.constant(orbit.rs.variables(), poly)
            orbit._q_by_partition[I] = divided_difference_word(
                orbit.rs, orbit.longest_rep.word, poly)
    return [orbit._q_by_partition[I] for I in parts]


def orbit_fixed_points(orbit: OrbitSpec, xi: Sequence[int]) -> FixedPointData:
    """One fixed point per coset of W/W_J; weights <w(alpha), xi> = <alpha, w^-1(xi)>."""
    xi = tuple(int(x) for x in xi)
    if len(xi) != orbit.rs.dim:
        raise ValueError(f"circle direction needs {orbit.rs.dim} coordinates")
    terms = []  # <root, y> = a y_i + b y_j: roots of A_n, B_n are e_i (b = 0), e_i -+ e_j
    for root in orbit.complement_roots:
        support = [(k, c) for k, c in enumerate(root) if c]
        (i, a), (j, b) = support if len(support) == 2 else support + [(0, 0)]
        terms.append((i, a, j, b))
    points, labels = [], []
    for w in orbit.cosets:
        y = [s * xi[p] for p, s in w.images]  # w^-1(xi), as w(e_i) = s_i * e_{p_i}
        weights = tuple([a * y[i] + b * y[j] for i, a, j, b in terms])
        if 0 in weights:
            root = orbit.complement_roots[weights.index(0)]
            raise ValueError(f"non-generic circle direction: <{w!r}({root}), {xi}> = 0")
        points.append(weights)
        labels.append(w.label())
    return FixedPointData(orbit.n, points, labels)


def crosscheck_qI(orbit: OrbitSpec, degrees: Iterable[int],
                  xi: Sequence[int]) -> list[dict]:
    """Both routes to q_I, for each partition I of each degree in `degrees`
    with at most n parts: divided differences vs localization at xi, each
    route with one m_I table for the whole batch.  Each q_I, of degree
    |I| - n, is evaluated at xi by `SparsePoly.evaluate`."""
    parts = [I for k in degrees for I in partitions_at_most(k, orbit.n)]
    algebraic = q_I_via_divided_diff(orbit, parts)
    localized = relation_coefficients(orbit_fixed_points(orbit, xi), parts)
    reports = []
    for I, poly, value in zip(parts, algebraic, localized):
        at_xi = poly.evaluate(xi)
        reports.append({"orbit": repr(orbit), "partition": partition_str(I),
                        "xi": list(xi), "ok": at_xi == value,
                        "divided_difference": at_xi, "localization": value})
    return reports
