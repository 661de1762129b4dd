"""The decision golden: every family's verdict and check report, pinned.

``tests/data/decisions.txt`` holds one line per instance, its name, its
verdict and a SHA-256 prefix of its ``check --no-timing`` report
(``tools/write_decisions.py`` writes it and defines the families).  Each
line is recomputed here; a line that moves is a moved verdict, center,
witness or claim.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _writer():
    spec = importlib.util.spec_from_file_location("write_decisions", ROOT / "tools" / "write_decisions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_decision_matches_the_golden():
    writer = _writer()
    golden = writer.GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = writer.decision_lines()
    assert len(lines) == len(golden) == 1791
    moved = [(want, got) for want, got in zip(golden, lines) if want != got]
    assert not moved, f"{len(moved)} decisions moved, the first: {moved[:3]}"


def test_an_unknown_option_exits_2_and_leaves_the_golden_as_it_is(capsys):
    """``write_decisions.py`` takes no options: any argument is a usage
    error, exit 2, before any line is computed or the golden rewritten."""
    writer = _writer()
    before = writer.GOLDEN.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        writer.main(["--bogus"])
    assert exit_info.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    assert writer.GOLDEN.read_bytes() == before
