"""Seeded request decks for the three benchmark workloads.

A workload is an endless sequence of *decks*.  Every deck of a workload
holds the same cells (request shapes of similar cost); the seed picks the
order of the cells, the exact level and precision inside each cell's narrow
range, the projective-space weights and the circle directions.  The harness
stops only at a deck boundary, so every run of a workload measures the same
mix whatever its seed, and the seed moves only what it should: which
concrete inputs are computed.

Nothing here imports genus_forge: the inputs are built by the benchmark and
the program sees only the generated files and arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("qseries", "orbits", "selftest")

# Properties a later claim may target; each request is tagged with the ones
# it has, and the harness reports their measured shares.
PROPERTIES = ("N>6", "prec>=40", "orbit_rank4", "orbit_n>=6", "extra_degrees1")


@dataclass(frozen=True)
class Job:
    """One unit of checked work: one CLI invocation, or two for the
    eisenstein/qn pair whose outputs are compared with each other."""

    kind: str                       # checker name in check.py
    argvs: tuple                    # tuple of CLI argument tuples
    expect: dict = field(default_factory=dict)
    props: frozenset = frozenset()


# -- inputs -----------------------------------------------------------------------


def cpn_data(n: int, weights) -> dict:
    """Fixed points of the standard circle action on CP^n: at P0 the
    weights are w_1..w_n, at P_j they are -w_j and w_k - w_j (k != j)."""
    points = [{"label": "P0", "weights": list(weights)}]
    for j in range(n):
        points.append({"label": f"P{j + 1}",
                       "weights": [-weights[j] if k == j else weights[k] - weights[j]
                                   for k in range(n)]})
    return {"n": n, "points": points, "asserted_index": n + 1}


def partition_count(k: int, parts: int) -> int:
    """Number of partitions of k into at most `parts` parts."""
    table = [[0] * (parts + 1) for _ in range(k + 1)]
    for m in range(parts + 1):
        table[0][m] = 1
    for total in range(1, k + 1):
        for m in range(1, parts + 1):
            table[total][m] = table[total][m - 1] + (
                table[total - m][m] if total >= m else 0)
    return table[k][parts]


def orbit_n(family: str, rank: int, J) -> int:
    """Complex dimension of the orbit: positive roots outside the Levi of J."""
    dim = rank + 1 if family == "A" else rank
    total = dim * (dim - 1) // 2 if family == "A" else dim * dim
    levi, run = 0, []
    for j in list(range(1, rank + 1)) + [None]:
        if j in J:
            run.append(j)
            continue
        m = len(run)
        if m:
            levi += m * m if (family == "B" and rank in run) else m * (m + 1) // 2
        run = []
    return total - levi


def generic_xi(rng: random.Random, family: str, rank: int) -> list:
    """A circle direction pairing to nonzero with every root: distinct
    coordinates for A (roots e_i - e_j), distinct nonzero absolute values
    for B (roots e_i +- e_j and e_i)."""
    if family == "A":
        return rng.sample(range(-9, 10), rank + 1)
    return [v * rng.choice((-1, 1)) for v in rng.sample(range(1, 10), rank)]


# -- qseries ------------------------------------------------------------------------

# (kind, n or weight k, levels, precision range).  Levels in one cell have
# the same phi(N) or close costs, and the precision ranges are narrow, so a
# cell costs about the same for every seed.
_QSERIES_CELLS = (
    ("genus", 1, (7, 9, 11), (50, 60)),
    ("genus", 2, (2, 4), (45, 60)),
    ("genus", 2, (5,), (28, 34)),
    ("genus", 2, (7, 9), (25, 30)),
    ("genus", 3, (3, 4), (40, 48)),
    ("genus", 3, (7, 9), (15, 20)),
    ("genus", 4, (2,), (45, 60)),
    ("genus", 4, (10, 12), (20, 25)),
    ("relations", 1, (2,), (50, 60)),
    ("relations", 2, (3,), (40, 48)),
    ("relations", 3, (4,), (25, 30)),
    ("relations", 3, (2,), (50, 60)),
    ("relations", 4, (5,), (15, 17)),
    ("lemma", 1, (7, 9), (15, 17)),
    ("lemma", 2, (2,), (40, 45)),
    ("lemma", 3, (3, 4), (20, 25)),
    ("lemma", 1, (10, 12), (20, 25)),
)


def _qseries_props(level: int, prec: int) -> frozenset:
    return frozenset(p for p, on in (("N>6", level > 6), ("prec>=40", prec >= 40)) if on)


def _qseries_deck(rng: random.Random, workdir: Path) -> list:
    deck = []
    for kind, n, levels, (lo, hi) in _QSERIES_CELLS:
        level, prec = rng.choice(levels), rng.randint(lo, hi)
        props = _qseries_props(level, prec)
        if kind == "lemma":
            deck.append(Job("lemma", (
                ("eisenstein", str(n), str(level), "--json", "--prec", str(prec)),
                ("qn", str(level), "--x-order", str(n + 1), "--json",
                 "--prec", str(prec))), {"k": n}, props))
            continue
        weights = rng.sample([w for w in range(-9, 10) if w], n)
        path = workdir / f"cp{n}_{'_'.join(map(str, weights))}.json"
        path.write_text(json.dumps(cpn_data(n, weights)), encoding="utf-8")
        if kind == "genus":
            argv = ("genus", str(path), str(level), "--prec", str(prec))
            deck.append(Job("genus", (argv,), {}, props))
        else:
            argv = ("relations", str(path), str(level), str(n), str(n + 3),
                    "--verify", "--prec", str(prec))
            deck.append(Job("relations", (argv,), {"lines": 4, "prec": prec}, props))
    rng.shuffle(deck)
    return deck


# -- orbits -------------------------------------------------------------------------

# (family, rank, J choices, extra degrees).  A4 with n = 7 (5 s, or 15-18 s
# with one extra degree) is left out: one such request would be a third of
# a deck and alone would set the deck's spread.
_ORBIT_CELLS = (
    ("A", 2, ((),), 1),
    ("A", 2, ((1,), (2,)), 1),
    ("B", 2, ((), (1,), (2,)), 1),
    ("A", 3, ((),), 0),
    ("A", 3, ((1,), (3,)), 1),
    ("A", 3, ((2,),), 1),
    ("A", 3, ((1, 2), (2, 3), (1, 3)), 1),
    ("A", 4, ("cpn",), 0),
    ("A", 4, ((1, 2, 3),), 1),
    ("A", 4, ((1, 2, 4), (1, 3, 4)), 0),
    ("B", 3, ((1, 2),), 1),
    ("B", 3, ((1, 3),), 0),
    ("B", 3, ("grassmannian",), 1),
)


def _orbits_deck(rng: random.Random) -> list:
    deck = []
    for family, rank, choices, extra in _ORBIT_CELLS:
        J = rng.choice(choices)
        if J == "cpn":
            J, head = tuple(range(2, rank + 1)), ("--cpn", str(rank))
        elif J == "grassmannian":
            J, head = tuple(range(2, rank + 1)), ("--grassmannian", str(rank))
        else:
            head = (family, str(rank), "--J", *map(str, J))
        n = orbit_n(family, rank, J)
        xi = generic_xi(rng, family, rank)
        argv = ("coadjoint", *head, "--xi", *map(str, xi), "--crosscheck",
                "--extra-degrees", str(extra))
        checks = sum(partition_count(k, n) for k in range(n, n + extra + 1))
        props = frozenset(p for p, on in (("orbit_rank4", rank == 4),
                                          ("orbit_n>=6", n >= 6),
                                          ("extra_degrees1", extra == 1)) if on)
        deck.append(Job("coadjoint", (argv,), {"checks": checks}, props))
    rng.shuffle(deck)
    return deck


# -- selftest -----------------------------------------------------------------------


def _selftest_deck(rng: random.Random, used: set) -> list:
    """Two selftests: a run stops at a deck boundary, so every run has an
    even number of samples and its median is the mean of two of them."""
    deck = []
    while len(deck) < 2:
        seed = rng.randrange(1, 10**6)
        if seed not in used:
            used.add(seed)
            deck.append(Job("selftest", (("selftest", "--seed", str(seed)),)))
    return deck


def decks(workload: str, seed: int, workdir: Path):
    """Endless, deterministic sequence of decks for `workload` at `seed`;
    input files are written under `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    used: set = set()
    while True:
        if workload == "qseries":
            yield _qseries_deck(rng, workdir)
        elif workload == "orbits":
            yield _orbits_deck(rng)
        else:
            yield _selftest_deck(rng, used)
