"""The public value types, pinned: repr, equality, hash and frozenness.

Every value the pipeline makes of the reference catalog and of the corpus
seeds ``1000*d + k`` (d = 1..3, k < 20) is checked against its field tuple,
written out below per type: ``hash`` is the hash of that tuple, a copy
made of the same fields is equal with the same hash and repr, a value of
another class (a subclass) with the same fields is not equal, and no field
can be assigned or deleted.  The reprs, which the CLI prints (``check``
prints the witness's), go to the golden ``tests/data/values.txt``; hashes
are not stored, since a ``str`` field hashes per ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asymgeo.cli.generators import gen_random_instance
from asymgeo.cli.suite import CatalogEntry, RunReport, _check, reference_catalog
from asymgeo.compactness import (
    BadRecessionDirection,
    ClaimResult,
    CompactnessCertificate,
    EscapedExtremePoint,
    Instance,
    TheoremReport,
    Verdict,
    decide_compact,
    verify_theorems,
)
from asymgeo.norm import AsymNorm, Ball, Closedness, ball
from asymgeo.polyhedron import Cone, PartialPolyhedron, Polyhedron
from asymgeo.ratlp import LpOutcome, lp_solve, zero_vec

GOLDEN = Path(__file__).parent / "data" / "values.txt"
SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    AsymNorm: ("dim", "_scale", "_rows"),
    PartialPolyhedron: ("dim", "_rows", "_scales"),
    Polyhedron: ("dim", "_verts", "_rays"),
    Cone: ("dim", "_gens", "_lin"),
    Instance: ("norm", "region"),
    CompactnessCertificate: ("verdict", "center", "witness"),
    BadRecessionDirection: ("direction",),
    EscapedExtremePoint: ("point",),
    ClaimResult: ("claim_id", "status", "detail"),
    TheoremReport: ("claims",),
    Ball: ("center", "radius", "closedness", "as_set"),
    LpOutcome: ("status", "value", "witness"),
    RunReport: ("name", "dim", "functionals", "rows", "verdict", "center", "witness",
                "claims", "note", "matched", "timing_ms"),
    CatalogEntry: ("name", "norm", "region", "expected_verdict", "expected_center", "note"),
}


def _cases():
    """(name, gauge, region): the reference catalog and the corpus seeds."""
    cases = [(entry.name, entry.norm, entry.region) for entry in reference_catalog()]
    return cases + [(f"random-{1000 * d + k}", *gen_random_instance(d, 1000 * d + k))
                    for d in (1, 2, 3) for k in range(20)]


def _values():
    """(heading, values) per instance: every public value made of it."""
    out = [("catalog", reference_catalog())]
    for name, norm, region in _cases():
        inst = Instance.build(norm, region)
        cert = decide_compact(inst)
        values = [norm, region, inst.hull, inst.degeneracy, inst, cert]
        values += [v for v in (cert.center, cert.witness) if v is not None]
        if cert.verdict is Verdict.COMPACT:
            report = verify_theorems(inst, cert)
            values += [report, *report.claims]
        origin = zero_vec(norm.dim)
        values += [ball(norm, origin, 1, Closedness.CLOSED), ball(norm, origin, 2, Closedness.OPEN)]
        rows = [(c.normal, c.rhs) for c in region.constraints]
        values += [lp_solve(f, rows) for f in (norm.functionals[0], norm.functionals[-1])]
        timed = _check(name, norm, region)
        values.append(RunReport(*[getattr(timed, n) for n in FIELDS[RunReport][:-1]]))
        out.append((name, values))
    return out


def _remade(cls, value):
    """A value of ``cls`` made of ``value``'s fields, by the public
    constructor or, for the four types that canonicalize, by ``_make``."""
    fields = {n: getattr(value, n) for n in FIELDS[type(value)]}
    return cls._make(**fields) if type(value) in (AsymNorm, PartialPolyhedron, Polyhedron, Cone) else cls(**fields)


def test_values_keep_their_reprs_equality_hashes_and_frozenness():
    """Each value against its field tuple, and every repr against the golden."""
    lines, kinds = [], set()
    for heading, values in _values():
        lines.append(f"# {heading}")
        for value in values:
            kinds.add(type(value))
            names = FIELDS[type(value)]
            key = tuple([getattr(value, n) for n in names])
            lines.append(repr(value))
            assert hash(value) == hash(key), value
            copy = _remade(type(value), value)
            assert copy is not value and copy == value and not copy != value, value
            assert hash(copy) == hash(value) and repr(copy) == repr(value), value
            twin = _remade(type("Twin", (type(value),), {}), value)
            assert twin != value and value != twin and not twin == value, value
            assert value != key and value.__eq__(key) is NotImplemented, value
            for name in (names[0], "unlisted"):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
            assert tuple([getattr(value, n) for n in names]) == key and repr(value) == lines[-1]
            if isinstance(value, BadRecessionDirection):
                assert value != EscapedExtremePoint(value.direction) != value
    assert kinds == set(FIELDS)
    assert "\n".join(lines) + "\n" == GOLDEN.read_text(encoding="utf-8")


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports ``asymgeo.cli.main`` loads neither
    ``dataclasses`` nor the ``inspect`` it pulls in: the values share one
    base (``ratlp._Value``), whose classes are made with no generated code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import sys, asymgeo.cli.main; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_src_imports_neither_dataclass_nor_cached_property():
    """No module under ``src/asymgeo`` imports ``dataclasses`` or
    ``functools.cached_property``: the values use ``ratlp._Value`` and
    their memos ``ratlp._memo``."""
    found = []
    for path in sorted((SRC / "asymgeo").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] == "dataclasses" or n == "functools.cached_property"]
    assert found == []
