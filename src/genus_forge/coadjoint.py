"""Coadjoint orbits: Weyl combinatorics and divided-difference pushforwards.

Supported root systems are type A_m (roots x_i - x_j in m+1 coordinates)
and type B_m (roots +-x_i +- x_j and +-x_i in m coordinates).  An orbit is
cut out by a subset J of the simple roots; its fixed points under a
generic subcircle xi are indexed by the minimal-length coset
representatives of W/W_J, with integer weights <w(alpha), xi> for alpha
ranging over the positive roots outside the span of J.

The same numbers q_I admit a second, purely algebraic route: apply the
divided-difference operator of the longest coset representative to the
monomial symmetric polynomial m_I evaluated at those roots.  Both routes
are implemented; `crosscheck_qI` insists they agree exactly.

Weyl elements are stored as signed permutations (w(e_i) = s_i * e_{p_i});
reduced words are recovered greedily by smallest-index right descents, on
first use only.  The group and its cosets are listed exhaustively, so an
orbit costs |W| elements plus one word recovery per coset: |W(A_m)| =
(m+1)! and |W(B_m)| = 2^m m!, which is 120 at A_4 and 48 at B_3 but 40320
at A_7.  Each q_I costs one m_I over the n roots outside <J> and n divided
differences, and grows quickly with n and |I|.  Nothing here bounds a
request; the CLI caps the rank, n and |I| - n (`COADJOINT_MAX_*` in
`genus_forge.cli`) so that each accepted request finishes well inside a
minute.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .localization import FixedPointData, relation_coefficient
from .sparsepoly import SparsePoly
from .symfunc import check_partition, monomial_sym_eval, partition_str


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
                terms[tuple(exp)] = Fraction(c)
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
    """A (signed) permutation w(e_i) = s_i * e_{p_i} with a reduced word."""

    __slots__ = ("rs", "images", "_word")

    def __init__(self, rs: RootSystem, images: Sequence[tuple[int, int]],
                 word: Optional[tuple[int, ...]] = None) -> None:
        self.rs = rs
        self.images = tuple((int(p), int(s)) for p, s in images)
        self._word = None if word is None else tuple(word)

    @property
    def word(self) -> tuple[int, ...]:
        """A reduced word, recovered on first access and then kept.  Eager
        recovery would recurse: each step composes, building a new element."""
        if self._word is None:
            self._word = self._recover_word()
        return self._word

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, [(i, 1) for i in range(rs.dim)], word=())

    @classmethod
    def simple(cls, rs: RootSystem, j: int) -> "WeylElement":
        return cls(rs, rs.simple_reflection_images(j), word=(j,))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other (group product self * other)."""
        images = []
        for p, s in other.images:
            q, t = self.images[p]
            images.append((q, s * t))
        return WeylElement(self.rs, images)

    def apply_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.rs.dim
        for i, c in enumerate(v):
            p, s = self.images[i]
            out[p] += s * c
        return tuple(out)

    def act(self, poly: SparsePoly) -> SparsePoly:
        """Action on polynomials: substitute x_i -> s_i * x_{p_i}."""
        return poly.subs_signed({i: ps for i, ps in enumerate(self.images)})

    def length(self) -> int:
        neg = _negative_root_set(self.rs)
        return sum(1 for root in self.rs.positive_roots()
                   if self.apply_vector(root) in neg)

    def is_identity(self) -> bool:
        return all(p == i and s == 1 for i, (p, s) in enumerate(self.images))

    def _recover_word(self) -> tuple[int, ...]:
        """Greedy right descents, smallest simple index first."""
        neg = _negative_root_set(self.rs)
        simples = self.rs.simple_roots()
        js = []
        cur = self
        while not cur.is_identity():
            for j, alpha in enumerate(simples, start=1):
                if cur.apply_vector(alpha) in neg:
                    js.append(j)
                    cur = cur.compose(WeylElement.simple(self.rs, j))
                    break
            else:
                raise ArithmeticError("non-identity element with no descent")
        word = tuple(reversed(js))
        if len(word) != self.length():
            raise ArithmeticError("recovered word is not reduced")
        return word

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.rs == other.rs
                and self.images == other.images)

    def __hash__(self):
        return hash((self.rs, self.images))

    def __repr__(self) -> str:
        body = "*".join(f"s{j}" for j in self.word) or "e"
        return f"<{self.rs} {body}>"


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The whole group, by closure under right multiplication by simples."""
    simples = [WeylElement.simple(rs, j) for j in range(1, rs.rank + 1)]
    seen = {WeylElement.identity(rs).images: WeylElement.identity(rs)}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for w in frontier:
            for s in simples:
                ws = w.compose(s)
                if ws.images not in seen:
                    seen[ws.images] = ws
                    nxt.append(ws)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda w: (w.length(), w.images)))


def _subgroup_generated(rs: RootSystem, J: Sequence[int]) -> set:
    gens = [WeylElement.simple(rs, j) for j in J]
    seen = {WeylElement.identity(rs).images}
    frontier = [WeylElement.identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = w.compose(g)
                if wg.images not in seen:
                    seen.add(wg.images)
                    nxt.append(wg)
        frontier = nxt
    return seen


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
        simples = rs.simple_roots()
        span = _span_positive_roots(rs, self.J)
        self.complement_roots = [r for r in rs.positive_roots() if r not in span]
        self.n = len(self.complement_roots)
        neg = _negative_root_set(rs)
        reps = [w for w in weyl_group(rs)
                if all(w.apply_vector(simples[j - 1]) not in neg for j in self.J)]
        expected = len(weyl_group(rs)) // len(_subgroup_generated(rs, self.J))
        if len(reps) != expected:
            raise ArithmeticError("coset representative count mismatch")
        self.cosets = reps
        self.longest_rep = max(reps, key=lambda w: w.length())
        if self.longest_rep.length() != self.n:
            raise ArithmeticError("longest representative length != number of "
                                  "roots outside <J>")

    def __repr__(self) -> str:
        return f"<OrbitSpec {self.rs} J={list(self.J)} n={self.n}>"

    def to_json(self) -> dict:
        return {"family": self.rs.family, "rank": self.rs.rank,
                "J": list(self.J)}

    @classmethod
    def from_json(cls, data) -> "OrbitSpec":
        return cls(RootSystem(data["family"], int(data["rank"])),
                   [int(j) for j in data.get("J", [])])


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
    """(P - s_j P) / alpha_j; the quotient is always exact."""
    alpha = rs.simple_roots()[j - 1]
    reflected = WeylElement.simple(rs, j).act(poly)
    numerator = poly - reflected
    try:
        return numerator.exact_div(rs.root_polynomial(alpha))
    except ValueError as exc:
        raise ArithmeticError("divided difference was not exact: "
                              "reflection action is inconsistent") from exc


def divided_difference_word(rs: RootSystem, word: Sequence[int],
                            poly: SparsePoly) -> SparsePoly:
    """Compose along a reduced word, rightmost letter applied first."""
    for j in reversed(tuple(word)):
        poly = divided_difference(rs, j, poly)
    return poly


def q_I_via_divided_diff(orbit: OrbitSpec, I: Sequence[int]) -> SparsePoly:
    """The pushforward of m_I(roots outside <J>) along the longest coset
    representative; degree |I| - n, constant for |I| = n.

    Computed once per (orbit, I) and kept on the orbit: it does not depend
    on the circle direction, so a crosscheck at several directions reuses it.
    """
    I = check_partition(I) if I else ()
    cached = orbit._q_by_partition.get(I)
    if cached is not None:
        return cached
    values = [orbit.rs.root_polynomial(r) for r in orbit.complement_roots]
    if len(I) > len(values):
        raise ValueError("partition has more parts than available roots")
    poly = monomial_sym_eval(I, values)
    if not isinstance(poly, SparsePoly):
        poly = SparsePoly.constant(orbit.rs.variables(), poly)
    poly = divided_difference_word(orbit.rs, orbit.longest_rep.word, poly)
    orbit._q_by_partition[I] = poly
    return poly


def orbit_fixed_points(orbit: OrbitSpec, xi: Sequence[int]) -> FixedPointData:
    """One fixed point per coset of W/W_J; weights <w(alpha), xi>."""
    xi = tuple(int(x) for x in xi)
    if len(xi) != orbit.rs.dim:
        raise ValueError(f"circle direction needs {orbit.rs.dim} coordinates")
    points, labels = [], []
    for w in orbit.cosets:
        weights = []
        for root in orbit.complement_roots:
            img = w.apply_vector(root)
            pairing = sum(a * b for a, b in zip(img, xi))
            if pairing == 0:
                raise ValueError("non-generic circle direction: "
                                 f"<{w!r}({root}), {xi}> = 0")
            weights.append(pairing)
        points.append(tuple(weights))
        labels.append("*".join(f"s{j}" for j in w.word) or "e")
    return FixedPointData(orbit.n, points, labels).validate()


def crosscheck_qI(orbit: OrbitSpec, I: Sequence[int], xi: Sequence[int]) -> dict:
    """Both routes to q_I: divided differences vs localization at xi."""
    I = check_partition(I)
    poly = q_I_via_divided_diff(orbit, I)
    algebraic = poly.evaluate([Fraction(x) for x in xi])
    fpd = orbit_fixed_points(orbit, xi)
    localized = relation_coefficient(fpd, I)
    return {"orbit": repr(orbit), "partition": partition_str(I),
            "xi": list(xi), "ok": algebraic == localized,
            "divided_difference": algebraic, "localization": localized}
