"""The report tools' seam: ``tools/harness.py``'s ``rebound``.

The work golden (``tests/data/work_counts.txt``) is read through wrappers
that ``rebound`` puts in the package's modules; a wrapper left in place
after a raise would count the next run's work twice, and one missing from
a module would not count the calls made through it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from asymgeo import compactness, polyhedron

ROOT = Path(__file__).resolve().parents[1]


def _harness():
    spec = importlib.util.spec_from_file_location("harness", ROOT / "tools" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_raise_inside_rebound_restores_every_module():
    harness = _harness()
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
    harness = _harness()
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
    harness = _harness()
    with harness.rebound("_held", lambda *args: True):
        assert not hasattr(compactness, "_held")
    assert not hasattr(compactness, "_held")
