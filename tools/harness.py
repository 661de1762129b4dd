"""What the report tools share: the one seam through which they count the
package's work, and the input families they draw.

- ``rebound(name, wrapper, modules)``: a context manager.  Inside the
  block each of ``modules`` that holds ``name`` holds ``wrapper`` instead,
  and on exit, after a raise too, each gets its own old binding back.  A
  module calls what its own namespace holds, so a wrapper counts the calls
  made through every module it was put in, and no other.
- ``random_family(d, count)``: the random instances of the seeds
  ``1000*d + k``, k < ``count``, as ``asymgeo gen random`` draws them.
- ``balls(prefix, dims, gauge)``: named closed and open balls, drawn with
  their gauges from ``random.Random(1000*d)``.

Standard library only; importing it puts the ``src`` next to it on the path.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from asymgeo import compactness, norm, polyhedron, ratlp  # noqa: E402
from asymgeo.cli.generators import gen_random_instance  # noqa: E402
from asymgeo.norm import Closedness, ball  # noqa: E402

MODULES = (ratlp, polyhedron, norm, compactness)
SEEDS_PER_DIM = 16
BALLS_PER_DIM = 8


@contextmanager
def rebound(name: str, wrapper, modules=MODULES):
    """Rebind ``name`` to ``wrapper`` in each of ``modules`` that holds it,
    for the block; each module's own old binding comes back on exit."""
    old = {module: getattr(module, name) for module in modules if hasattr(module, name)}
    for module in old:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, binding in old.items():
            setattr(module, name, binding)


def random_family(d: int, count: int = SEEDS_PER_DIM) -> list:
    """(gauge, region) of the random instances of the seeds ``1000*d + k``,
    k < ``count``."""
    return [gen_random_instance(d, 1000 * d + k) for k in range(count)]


def balls(prefix: str, dims, gauge):
    """(name, gauge, region) of ``BALLS_PER_DIM`` closed and open balls at each
    d of ``dims``, each on the gauge value ``gauge(d, rng)`` makes, drawn
    with its center and radius from ``rng = random.Random(1000*d)``."""
    for d in dims:
        rng = random.Random(1000 * d)
        for i in range(BALLS_PER_DIM):
            q = gauge(d, rng)
            center = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            radius = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            for closedness in (Closedness.CLOSED, Closedness.OPEN):
                yield f"{prefix}-ball-{d}-{i}-{closedness.value.lower()}", q, ball(q, center, radius, closedness).as_set
