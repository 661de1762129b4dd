"""Seeded workloads: instance texts handed to the program, plus their shifts.

Every workload is a fixed population of base instances, indexed by k and
drawn with the program's own generators.  The seed moves each instance by
an integer translation vector drawn from ``(seed, k)``.  Compactness is
translation invariant and every output the program prints is canonical, so
a translated instance has the same verdict and claims, its center and any
escaped point move by the same vector, and a recession direction stays put.
So every seed runs the same population in the same structure while
handing the program different numbers.  Seed 0 is the identity:
``corpus`` then replays the acceptance seeds ``1000*d + k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from asymgeo.cli.generators import gen_lattice_norm, gen_random_instance
from asymgeo.cli.instances import write_instance
from asymgeo.norm import Closedness, ball
from asymgeo.polyhedron import Constraint, PartialPolyhedron

DEFAULT_SEED = 0

# Instances per second of --seconds in each of a run's two timed passes.
# A pass times a fixed number of instances, sized so that a whole run takes
# about --seconds plus a few at the baseline commit: for highdim and
# lattice-ball the two passes fill it; corpus's three set-ups (3 s each)
# take a third of it.  A fixed count keeps percentiles, call counts and the
# reference comparison on the same instances whatever the speed of the code
# under test.
RATE = {"corpus": 25, "highdim": 3.75, "lattice-ball": 2.75}

# d=4, not 5: a d=5 instance takes from 0.07 s to over 6 s, so a run holds
# about thirty of them and its median and tail moved by 15-30% between seeds.
HIGH_DIM = 4
LATTICE_DIM = 4


@dataclass(frozen=True)
class Item:
    """One instance: population index, translation and the text handed over."""

    index: int
    shift: tuple[Fraction, ...]
    text: str


def instance_count(workload: str, seconds: int) -> int:
    return max(24, round(seconds * RATE[workload]))


def _translate(region: PartialPolyhedron, shift) -> PartialPolyhedron:
    """The region moved by ``shift``: <c, x> <= b becomes <c, x> <= b + <c, shift>."""
    rows = tuple(
        Constraint(c.normal, c.rhs + sum(a * s for a, s in zip(c.normal, shift)), c.strict)
        for c in region.constraints
    )
    return PartialPolyhedron(region.dim, rows)


def _shift(seed: int, index: int, dim: int, attempt: int) -> tuple[Fraction, ...]:
    if seed == DEFAULT_SEED:
        return (Fraction(0),) * dim
    rng = random.Random(f"{seed}:{index}:{attempt}")
    span = 3 + attempt
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(dim))


def _random_base(dims: tuple[int, ...]) -> Iterator[tuple]:
    """gen_random_instance draws, cycling the dimensions; seeds 1000*d + j."""
    j = 0
    while True:
        for d in dims:
            yield gen_random_instance(d, 1000 * d + j)
        j += 1


def _ball_base() -> Iterator[tuple]:
    """Balls of the d=4 one-norm lattice gauge, three closed to two open.

    Closed balls are COMPACT and open ones are not, so the median instance
    is a COMPACT one and ``check_ms.p50`` carries the T1-T6 checks, not the
    midpoint between the two verdicts' times.
    """
    norm = gen_lattice_norm(LATTICE_DIM, "one")
    k = 0
    while True:
        rng = random.Random(f"lattice-ball:{k}")
        center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(LATTICE_DIM))
        radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        closedness = Closedness.CLOSED if k % 5 in (0, 2, 4) else Closedness.OPEN
        yield norm, ball(norm, center, radius, closedness).as_set
        k += 1


def _base(workload: str) -> Iterator[tuple]:
    if workload == "corpus":
        return _random_base((1, 2, 3))
    if workload == "highdim":
        return _random_base((HIGH_DIM,))
    if workload == "lattice-ball":
        return _ball_base()
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, count: int, on_item: Callable[[], None] | None = None) -> list[Item]:
    """The first ``count`` distinct instances of the workload, shifted by seed.

    Base instances whose text repeats an earlier one are skipped, so the
    population does not depend on the seed; a shift that would repeat an
    earlier text is drawn again.  No instance value is handed over twice.
    Translating a ball moves its center, so ``lattice-ball`` centers are
    seeded the same way.  ``on_item`` is called after each instance is made.
    """
    items: list[Item] = []
    base_seen: set[str] = set()
    seen: set[str] = set()
    for norm, region in _base(workload):
        base_text = write_instance(norm, region)
        if base_text in base_seen:
            continue
        base_seen.add(base_text)
        index = len(items)
        attempt = 0
        while True:
            shift = _shift(seed, index, norm.dim, attempt)
            text = write_instance(norm, _translate(region, shift)) if any(shift) else base_text
            if text not in seen:
                break
            attempt += 1
        seen.add(text)
        items.append(Item(index, shift, text))
        if on_item is not None:
            on_item()
        if len(items) == count:
            break
    return items
