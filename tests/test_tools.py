"""The report tools: ``tools/harness.py``'s seam, ``rebound``, and the
work golden's double-description lines.

``tools/dd_scale.py`` counts calls and times through wrappers that
``rebound`` puts in the package's modules; a wrapper left in place after a
raise would count the next run's work twice, and one missing from a module
would not count the calls made through it.  The double description's work
counts it reads off the code's own tally (``polyhedron._DD_WORK``), so its
ball lines are checked against the work golden
(``tests/data/work_counts.txt``) here too: a count that drifts fails the
tests, not only the golden's diff in CI.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from asymgeo import compactness, polyhedron

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_raise_inside_rebound_restores_every_module():
    harness = _tool("harness")
    real = polyhedron._cut
    assert compactness._cut is real

    def wrapper(*args):
        return real(*args)

    with pytest.raises(RuntimeError, match="inside"):
        with harness.rebound("_cut", wrapper):
            assert polyhedron._cut is wrapper and compactness._cut is wrapper
            raise RuntimeError("inside")
    assert polyhedron._cut is real and compactness._cut is real


def test_nested_rebounds_wrap_each_module_and_restore_its_own_binding():
    harness = _tool("harness")
    real = polyhedron._cut

    def a(*args):
        return real(*args)

    def b(*args):
        return real(*args)

    with harness.rebound("_cut", a, [polyhedron]), harness.rebound("_cut", b, [compactness]):
        assert polyhedron._cut is a
        assert compactness._cut is b
    assert polyhedron._cut is real and compactness._cut is real
    with harness.rebound("_cut", a, [polyhedron]):
        with harness.rebound("_cut", b):
            assert polyhedron._cut is b and compactness._cut is b
        assert polyhedron._cut is a and compactness._cut is real
    assert polyhedron._cut is real and compactness._cut is real


def test_a_module_that_does_not_hold_the_name_is_left_alone():
    harness = _tool("harness")
    with harness.rebound("_held", lambda *args: True):
        assert not hasattr(compactness, "_held")
    assert not hasattr(compactness, "_held")


def test_dd_scale_ball_lines_match_the_work_golden(monkeypatch, capsys):
    """``dd_scale``'s ``ball-d4`` and ``open-ball-d4`` lines, times dropped
    as ``tools/write_work_counts.py`` drops them, are those of the work
    golden, byte for byte: calls, rays and the double description's own
    work counts."""
    monkeypatch.setitem(sys.modules, "harness", _tool("harness"))
    assert _tool("dd_scale").main(["--dims", "--arcs", "--balls", "4"]) == 0
    got = [json.dumps({k: v for k, v in json.loads(line).items() if not k.endswith(("_s", "_s_median"))})
           for line in capsys.readouterr().out.splitlines()]
    golden = (ROOT / "tests" / "data" / "work_counts.txt").read_text(encoding="utf-8").splitlines()
    assert got == [line for line in golden if json.loads(line).get("family") in ("ball-d4", "open-ball-d4")]
