"""Textual instance format: a gauge plus a region, exact rationals only.

Grammar (one directive per line, ``#`` starts a comment; a directive is
its line's first word, or the key before ``:`` on a row):

    version 1             # exactly once
    dim D                 # exactly once, before any row; 1 <= D <= 12, the largest `gen --dim`
    F: a1 ... aD          # one gauge functional per line
    H: c1 ... cD REL b    # inequality row, REL in {<, <=}
    V: x1 ... xD          # or: generator form, vertices ...
    R: d1 ... dD          #     ... and ray directions

Numbers are integers or fractions ``p/q``, exactly ``-?[0-9]+(/[0-9]+)?``
with q > 0.  The set block is either all H rows or a V/R block (converted
to inequalities on parse).  The writer emits a canonical H form, or for a
region without rows (the whole space) the V/R block of the origin and the
unit directions, so ``write(parse(text))`` is byte-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from asymgeo.cli.generators import ONE_FLAVOR_DIM_LIMIT
from asymgeo.norm import AsymNorm, _gauge
from asymgeo.polyhedron import PartialPolyhedron, Polyhedron, to_partial
from asymgeo.ratlp import _cleared


class InstanceError(ValueError):
    """Malformed instance text; the message carries the line number."""


_NUMBER = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # -?[0-9]+(/[0-9]+)? with q > 0


def _fail(lineno: int, msg: str) -> "InstanceError":
    return InstanceError(f"line {lineno}: {msg}")


def _reduced(tok: str) -> tuple[int, int]:
    """(p, q), the number a grammar token denotes as p / q in lowest terms,
    q > 0; a ValueError carries the reason."""
    # Fraction alone also takes 1.5, 1_000, +1 and 1e999999999 (a huge integer)
    if not _NUMBER.fullmatch(tok):
        raise ValueError(f"bad rational {tok!r}")
    num, _, den = tok.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # more digits than the interpreter's int_max_str_digits
        raise ValueError(f"number too long: {exc}") from None
    g = gcd(p, q)
    return p // g, q // g


def _parse_rational(tok: str, where: str) -> Fraction:
    """The token's value as a ``Fraction``; errors are raised as
    ``InstanceError``s that begin with ``where``."""
    try:
        return Fraction(*_reduced(tok))
    except ValueError as exc:
        raise InstanceError(f"{where}: {exc}") from None


def _number(tok: str, numbers: dict[str, tuple[int, int]], lineno: int) -> tuple[int, int]:
    """A token not yet in ``numbers``, checked and reduced (``_reduced``);
    memoized in ``numbers``."""
    try:
        numbers[tok] = entry = _reduced(tok)
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None
    return entry


def _row(toks: list[str], numbers: dict[str, tuple[int, int]],
         lineno: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tokens' reduced numerators and denominators, by ``_number``."""
    ps, qs = zip(*[numbers.get(t) or _number(t, numbers, lineno) for t in toks])
    return ps, qs


def parse_instance(text: str) -> tuple[AsymNorm, PartialPolyhedron]:
    """Parse instance text into a validated (gauge, region) pair.

    An internal builder: each distinct number token is checked and reduced
    to ints once per call, every H row is cleared by the lcm of its
    denominators and the functionals jointly by theirs (``norm._gauge``),
    and both values are made of that stored form (``_make``), after the
    gauge's definiteness check on its ints; no ``Fraction`` is made for
    them.  A V/R block goes through the public constructors.
    """
    version: Optional[str] = None
    dim: Optional[int] = None
    numbers: dict[str, tuple[int, int]] = {}
    functionals: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    rows: list[tuple[tuple[int, ...], int, bool]] = []
    scales: list[int] = []
    generators: dict[str, list[tuple[Fraction, ...]]] = {"V": [], "R": []}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        if word == "version":
            if version is not None:
                raise _fail(lineno, "repeated 'version' line")
            parts = line.split()
            if len(parts) != 2:
                raise _fail(lineno, "expected 'version <tag>'")
            version = parts[1]
            continue
        if word == "dim":
            if dim is not None:
                raise _fail(lineno, "repeated 'dim' line")
            parts = line.split()
            if (len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit())
                    or (dim := _number(parts[1], numbers, lineno)[0]) < 1):
                raise _fail(lineno, "expected 'dim <positive integer>'")
            if dim > ONE_FLAVOR_DIM_LIMIT:
                raise _fail(lineno, f"dim {dim} is above the limit {ONE_FLAVOR_DIM_LIMIT}")
            continue
        if ":" not in line:
            raise _fail(lineno, f"unknown directive {word!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        toks = rest.split()
        if dim is None:
            raise _fail(lineno, "dim must come before any row")
        if key == "F":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coefficients, got {len(toks)}")
            functionals.append(_row(toks, numbers, lineno))
        elif key == "H":
            if len(toks) != dim + 2:
                raise _fail(lineno, f"expected '{dim} coefficients REL rhs'")
            rel = toks.pop(dim)
            if rel not in ("<", "<="):
                raise _fail(lineno, f"relation must be '<' or '<=', got {rel!r}")
            ps, qs = _row(toks, numbers, lineno)
            s = lcm(*qs)
            ints = _cleared(ps, qs, s)
            rows.append((ints[:-1], ints[-1], rel == "<"))
            scales.append(s)
        elif key in generators:
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coordinates, got {len(toks)}")
            generators[key].append(tuple(map(Fraction, *_row(toks, numbers, lineno))))
        else:
            raise _fail(lineno, f"unknown directive {key!r}")

    if version is None:
        raise InstanceError("missing 'version' line")
    if version != "1":
        raise InstanceError(f"unsupported version {version!r}")
    if dim is None:
        raise InstanceError("missing 'dim' line")
    if not functionals:
        raise InstanceError("missing functional rows (F:)")
    norm = _gauge(dim, functionals)

    vertices, rays = generators["V"], generators["R"]
    if rows and (vertices or rays):
        raise InstanceError("give either H rows or a V/R block, not both")
    if rows:
        region = PartialPolyhedron._make(dim=dim, _rows=tuple(rows), _scales=tuple(scales))
    elif vertices:
        region = to_partial(Polyhedron(dim, tuple(vertices), tuple(rays)))
    else:
        raise InstanceError("missing set block (H rows or V/R block)")
    return norm, region


def _fmt(p: int, q: int) -> str:
    """The number p / q, q > 0, in lowest terms as the grammar writes it."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _h_line(c: Sequence[int], b: int, strict: bool, s: int) -> str:
    """The ``H:`` line of a stored row (c, b, strict) of scale s, as
    ``write_instance`` and ``asymgeo ball`` print it."""
    rel = "<" if strict else "<="
    return "H: " + " ".join([_fmt(x, s) for x in c]) + f" {rel} {_fmt(b, s)}"


def write_instance(norm: AsymNorm, region: PartialPolyhedron) -> str:
    """Canonical text for the pair; parse(write(...)) round-trips exactly.

    Printed from the stored ints.  A region without rows is the whole space,
    which has no H row to print: it is written as the V/R block of the
    origin and the 2 * dim unit directions.
    """
    d = norm.dim
    lines = ["version 1", f"dim {d}"]
    lines += ["F: " + " ".join([_fmt(a, norm._scale) for a in f]) for f in norm._rows]
    lines += [_h_line(c, b, strict, s) for (c, b, strict), s in zip(region._rows, region._scales)]
    if not region._rows:
        lines.append("V: " + " ".join(["0"] * d))
        lines += ["R: " + " ".join([sign if j == i else "0" for j in range(d)])
                  for i in range(d) for sign in ("1", "-1")]
    return "\n".join(lines) + "\n"
