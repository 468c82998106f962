"""Fixed-point data of a circle action, and the numbers q_I it determines.

A manifold enters the computation only through its isolated fixed points:
at each one the n tangent weights are nonzero integers.  `FixedPointData`
holds them, checked as they are built or read from JSON, and
`relation_coefficients` sums

    q_I = sum_P  m_I(w(P)) / prod_j w_j(P)

over the points, with one integer table of m_R per fixed point, a list
indexed by positions that a schedule memoized per (partition batch, n)
assigns: the m_I kernel of the localization route alone, apart from the
one of the divided-difference route in `coadjoint`.

This module loads nothing else from the package at import time, so its
JSON checks, all a `polytope` request uses, come without `symfunc` or the
q-series stack that `localization` builds on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .symfunc import Partition


class FixedPointData:
    """Isolated fixed points of a circle action: one weight vector per point,
    checked by `validate` as the data is built.  Immutable, with `points` and
    `labels` held as tuples, so the checked data cannot change afterwards."""

    __slots__ = ("n", "points", "labels", "asserted_index")

    def __init__(self, n: int, points: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None,
                 asserted_index: Optional[int] = None) -> None:
        points = tuple(tuple(int(w) for w in p) for p in points)
        if labels is None:
            labels = tuple(f"P{i}" for i in range(len(points)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", tuple(str(s) for s in labels))
        object.__setattr__(self, "asserted_index", asserted_index)
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("FixedPointData is immutable")

    def validate(self) -> "FixedPointData":
        if self.n < 1:
            raise ValueError("half-dimension n must be at least 1")
        if not self.points:
            raise ValueError("no fixed points: a compact manifold with a "
                             "circle action has at least one")
        if len(self.labels) != len(self.points):
            raise ValueError("label list does not match the point list")
        for i, (label, weights) in enumerate(zip(self.labels, self.points)):
            if len(weights) != self.n:
                raise ValueError(f"point {brief(label, str(i))}: expected "
                                 f"{brief(self.n)} weights, got {len(weights)}")
            for slot, w in enumerate(weights, start=1):
                if w == 0:
                    raise ValueError(f"point {brief(label, str(i))}: zero weight in slot {slot} "
                                     "(fixed point would not be isolated)")
        return self

    def check_level(self, N: int) -> None:
        """Refuse a level N that does not divide the asserted index, if any."""
        if self.asserted_index is not None and self.asserted_index % N:
            raise ValueError(f"N={N} does not divide the asserted index "
                             f"{brief(self.asserted_index)}")

    def index_bound(self) -> int:
        """g = gcd over the points P of W(P) - W(P_0), W the weight sum (c_1 at
        the fixed points).  A manifold's index divides g; 0 means no bound."""
        sums = [sum(weights) for weights in self.points]
        return gcd(*(w - sums[0] for w in sums))

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"<FixedPointData n={self.n}, {len(self.points)} points>"

    def describe(self) -> str:
        core = f"{len(self.points)} fixed points, n={self.n}"
        if self.asserted_index is not None:
            core += f", asserted index {self.asserted_index}"
        return core

    def to_json(self) -> dict:
        data = {"n": self.n,
                "points": [{"label": lab, "weights": list(ws)}
                           for lab, ws in zip(self.labels, self.points)]}
        if self.asserted_index is not None:
            data["asserted_index"] = self.asserted_index
        return data

    @classmethod
    def from_json(cls, data) -> "FixedPointData":
        """Read the JSON form written by `to_json`; a value of the wrong
        shape is a ValueError, never coerced."""
        points = data.get("points") if isinstance(data, dict) else None
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise ValueError('fixed-point data must be an object with a "points" list '
                             "of objects")
        index = data.get("asserted_index")
        if index is not None and json_int(index, "asserted_index") < 1:
            raise ValueError(f"asserted_index must be positive, got {brief(index)}")
        for i, label in enumerate(p.get("label", "") for p in points):
            if type(label) is not str:
                raise ValueError(f"point {i} label must be a string, got {_shown(label)}")
        return cls(json_int(data.get("n"), "n"),
                   [json_int_list(p.get("weights"), f"point {i} weights")
                    for i, p in enumerate(points)],
                   [p.get("label", f"P{i}") for i, p in enumerate(points)], index)


def json_int(value, what: str) -> int:
    """value, if it is a JSON integer; true, 1.5 and "1" are not."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {_shown(value)}")
    return value


def json_int_list(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {_shown(value)}")
    return [json_int(v, f"{what} entry") for v in value]


def _shown(value) -> str:
    """A JSON number, boolean or null as itself (an integer through `brief`);
    a string, array or object by its type alone, so that an error line stays
    short whatever it holds."""
    name = {str: "a string", list: "an array", dict: "an object"}.get(type(value))
    return name or (brief(value) if type(value) is int else json.dumps(value))


def brief(value, instead: str = "a long value") -> str:
    """value as text when it is short: at most 40 characters, or 40 digits
    for an integer or fraction.  A longer number is given by its sign and
    digit count, anything else by `instead`, so that an error line stays
    short whatever the input holds."""
    if not isinstance(value, (int, Fraction)):
        return str(value) if len(str(value)) <= 40 else instead
    num, den = map(_digit_count, value.as_integer_ratio())
    if num + den <= 40:
        return str(value)
    size = (f"{num}-digit integer" if value.denominator == 1
            else f"fraction of {num} over {den} digits")
    return f"a {'negative' if value < 0 else 'positive'} {size}"


def _digit_count(x: int) -> int:
    """The decimal digits of |x|, without str(), which refuses past 4 300."""
    count = abs(x).bit_length() * 30103 // 100000 + 1     # never too few
    while count > 1 and 10 ** (count - 1) > abs(x):
        count -= 1
    return count


def relation_coefficients(fpd: FixedPointData,
                          partitions: Sequence[Sequence[int]]) -> list[Fraction]:
    """q_I = sum over P of m_I(w(P)) / prod_j w_j(P), for each I in partitions.

    Each fixed point gets one table of integers m_R(w_1..w_k) over every
    sub-multiset R of the partitions, grown one weight v = w_k at a time:

        m_R(w_1..w_k) = m_R(w_1..w_(k-1))
                      + sum over distinct parts e of R of
                            v^e m_(R minus e)(w_1..w_(k-1)),

    updated longest R first, so that R minus e still holds its value at
    k - 1.  The table is a list indexed by the positions that
    `_table_steps` assigns, and its schedule is built once per partition
    batch and n.  The values at the points are summed as integers over the
    lcm of the prod_j w_j(P), so each q_I costs one Fraction.  This kernel
    belongs to the localization route alone: the divided-difference route
    evaluates m_I with `symfunc.monomial_sym_eval`, so a fault in either
    shows as a crosscheck mismatch.
    """
    from .symfunc import check_partition

    parts = tuple(check_partition(I) if I else () for I in partitions)
    if any(len(I) > fpd.n for I in parts):
        raise ValueError("partition has more parts than there are weights")
    steps, size, slots, top = _table_steps(parts, fpd.n)
    dens = [prod(weights) for weights in fpd.points]
    common = lcm(*dens)
    totals = [0] * len(parts)
    for weights, den in zip(fpd.points, dens):
        table = [1] + [0] * (size - 1)
        for v, active in zip(weights, steps):
            powers = [1, v]
            for _ in range(top - 1):
                powers.append(powers[-1] * v)
            for r, pairs in active:
                total = table[r]
                for e, rest in pairs:
                    total += powers[e] * table[rest]
                table[r] = total
        scale = common // den
        totals = [t + scale * table[s] for t, s in zip(totals, slots)]
    return [Fraction(t, common) for t in totals]


@lru_cache(maxsize=128)
def _table_steps(parts: tuple[Partition, ...], n: int):
    """The update schedule of the m_R table for n weights: the schedule, the
    table's size, the position of each requested I and the largest part.

    The table holds m_R for every sub-multiset R of the partitions, R = ()
    at position 0.  Entry k - 1 of the schedule lists the positions of the R
    to update at weight k, longest first, each with its (e, position of
    R minus e) pairs over the distinct parts e.  An R updates at weight k
    when it has at most k parts (m_R is 0 before) and can still grow into a
    requested I: a requested I that contains R has at most n - k more parts.
    Memoized, so that a process that repeats a batch builds its schedule once.
    """
    by_length: list[dict] = [{} for _ in range(max(map(len, parts), default=0) + 1)]
    for I in parts:
        by_length[len(I)][I] = 0   # R -> fewest parts some requested I adds to R
    pairs = {}
    for length in range(len(by_length) - 1, 0, -1):
        shorter = by_length[length - 1]
        for R, slack in by_length[length].items():
            pairs[R] = []
            for i, e in enumerate(R):
                if i and R[i - 1] == e:
                    continue
                rest = R[:i] + R[i + 1:]
                pairs[R].append((e, rest))
                shorter[rest] = min(shorter.get(rest, slack + 1), slack + 1)
    position = {R: r for r, R in enumerate([(), *pairs])}
    steps = tuple(tuple((position[R], tuple((e, position[rest]) for e, rest in pairs[R]))
                        for length in range(min(k, len(by_length) - 1), 0, -1)
                        for R, slack in by_length[length].items() if k <= n - slack)
                  for k in range(1, n + 1))
    top = max((I[0] for I in parts if I), default=0)
    return steps, len(position), tuple(position[I] for I in parts), top
