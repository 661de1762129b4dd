"""Textual instance format: a gauge plus a region, exact rationals only.

Grammar (one directive per line, ``#`` starts a comment):

    version 1
    dim D                 # 1 <= D <= 12, the largest `gen --dim`
    F: a1 ... aD          # one gauge functional per line
    H: c1 ... cD REL b    # inequality row, REL in {<, <=}
    V: x1 ... xD          # or: generator form, vertices ...
    R: d1 ... dD          #     ... and ray directions

Numbers are integers or fractions ``p/q``, exactly ``-?[0-9]+(/[0-9]+)?``
with q > 0.  The set block is either all H rows or a V/R block (converted
to inequalities on parse).  The writer emits a canonical H form, so
``write(parse(text))`` is byte-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from asymgeo.cli.generators import ONE_FLAVOR_DIM_LIMIT
from asymgeo.norm import AsymNorm, make_norm
from asymgeo.polyhedron import (
    Constraint,
    PartialPolyhedron,
    Polyhedron,
    to_partial,
)


class InstanceError(ValueError):
    """Malformed instance text; the message carries the line number."""


_NUMBER = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # -?[0-9]+(/[0-9]+)? with q > 0


def _fail(lineno: int, msg: str) -> "InstanceError":
    return InstanceError(f"line {lineno}: {msg}")


def _parse_rational(tok: str, where: str) -> Fraction:
    # Fraction alone also takes 1.5, 1_000, +1 and 1e999999999 (a huge integer)
    if not _NUMBER.fullmatch(tok):
        raise InstanceError(f"{where}: bad rational {tok!r}")
    num, _, den = tok.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as exc:  # more digits than the interpreter's int_max_str_digits
        raise InstanceError(f"{where}: number too long: {exc}") from None


def parse_instance(text: str) -> tuple[AsymNorm, PartialPolyhedron]:
    """Parse instance text into a validated (gauge, region) pair."""
    version: Optional[str] = None
    dim: Optional[int] = None
    functionals: list[tuple[Fraction, ...]] = []
    h_rows: list[Constraint] = []
    vertices: list[tuple[Fraction, ...]] = []
    rays: list[tuple[Fraction, ...]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("version"):
            parts = line.split()
            if len(parts) != 2:
                raise _fail(lineno, "expected 'version <tag>'")
            version = parts[1]
            continue
        if line.startswith("dim"):
            parts = line.split()
            if (len(parts) != 2 or re.fullmatch("[0-9]+", parts[1]) is None
                    or _parse_rational(parts[1], f"line {lineno}") < 1):
                raise _fail(lineno, "expected 'dim <positive integer>'")
            dim = int(parts[1])
            if dim > ONE_FLAVOR_DIM_LIMIT:
                raise _fail(lineno, f"dim {dim} is above the limit {ONE_FLAVOR_DIM_LIMIT}")
            continue
        if ":" not in line:
            raise _fail(lineno, f"unknown directive {line.split()[0]!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        toks = rest.split()
        where = f"line {lineno}"
        if dim is None:
            raise _fail(lineno, "dim must come before any row")
        if key == "F":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coefficients, got {len(toks)}")
            functionals.append(tuple(_parse_rational(t, where) for t in toks))
        elif key == "H":
            if len(toks) != dim + 2:
                raise _fail(lineno, f"expected '{dim} coefficients REL rhs'")
            rel = toks[dim]
            if rel not in ("<", "<="):
                raise _fail(lineno, f"relation must be '<' or '<=', got {rel!r}")
            normal = tuple(_parse_rational(t, where) for t in toks[:dim])
            rhs = _parse_rational(toks[dim + 1], where)
            h_rows.append(Constraint(normal, rhs, rel == "<"))
        elif key == "V":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coordinates, got {len(toks)}")
            vertices.append(tuple(_parse_rational(t, where) for t in toks))
        elif key == "R":
            if len(toks) != dim:
                raise _fail(lineno, f"expected {dim} coordinates, got {len(toks)}")
            rays.append(tuple(_parse_rational(t, where) for t in toks))
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
    norm = make_norm(dim, functionals)

    if h_rows and (vertices or rays):
        raise InstanceError("give either H rows or a V/R block, not both")
    if h_rows:
        region = PartialPolyhedron(dim, tuple(h_rows))
    elif vertices:
        region = to_partial(Polyhedron(dim, tuple(vertices), tuple(rays)))
    else:
        raise InstanceError("missing set block (H rows or V/R block)")
    return norm, region


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def write_instance(norm: AsymNorm, region: PartialPolyhedron) -> str:
    """Canonical text for the pair; parse(write(...)) round-trips exactly."""
    lines = ["version 1", f"dim {norm.dim}"]
    for f in norm.functionals:
        lines.append("F: " + " ".join(_fmt(c) for c in f))
    for c in region.constraints:
        rel = "<" if c.strict else "<="
        lines.append("H: " + " ".join(_fmt(x) for x in c.normal) + f" {rel} {_fmt(c.rhs)}")
    return "\n".join(lines) + "\n"
