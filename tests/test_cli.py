"""Instance format, generators, reference suite, rendering, exit codes."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymgeo.cli import generators
from asymgeo.cli.generators import (
    gen_arc_hull,
    gen_lattice_norm,
    gen_random_instance,
    gen_random_norm,
    gen_random_region,
)
from asymgeo.cli.instances import InstanceError, parse_instance, write_instance
from asymgeo.cli.main import main
from asymgeo.cli.render import RenderError, render_svg
from asymgeo.cli.suite import _check, reference_catalog, run_reference_suite
from asymgeo.compactness import Instance, Verdict, decide_compact, sandwich_certify
from asymgeo.norm import Closedness, DefinitenessViolation, _check_definite, ball, gauge_eval
from asymgeo.polyhedron import Constraint, PartialPolyhedron, member, partial_is_empty, set_equal

from support import interval, rand_point, ref_ball_set, ref_gen_random_instance, ref_parse_instance, ref_repr

F = Fraction

RAY_TEXT = """\
# the motivating half-open interval
version 1
dim 1
F: 1
H: 1 <= 1
H: -1 < 1
"""


def test_parse_reference_instance():
    norm, region = parse_instance(RAY_TEXT)
    assert norm.dim == 1 and norm.functionals == ((1,),)
    assert set_equal(region, interval(-1, 1, lo_open=True))
    assert region.constraints[1].strict


def test_parse_rejects_zero_denominator():
    bad = RAY_TEXT.replace("H: 1 <= 1", "H: 1/0 <= 1")
    with pytest.raises(InstanceError, match="line 5"):
        parse_instance(bad)


@pytest.mark.parametrize("tok", ["1.5", "1e3", "1e999999999", "1_000", "+1", "\u0663"])
def test_parse_accepts_only_the_number_grammar(tok):
    bad = RAY_TEXT.replace("H: 1 <= 1", f"H: {tok} <= 1")
    with pytest.raises(InstanceError, match="line 5: bad rational"):
        parse_instance(bad)


@pytest.mark.parametrize("tok", ["\u0663", "\u00b2", "\uff13"])
def test_parse_dim_accepts_ascii_digits_only(tok):
    with pytest.raises(InstanceError, match="line 1: expected 'dim"):
        parse_instance(f"dim {tok}2\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit")
def test_parse_names_the_line_of_an_over_long_number(tmp_path, capsys):
    """A token past the interpreter's digit limit is an instance error with a
    line number, in a row and in the dim line alike, and the CLI exits 2."""
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    bad = RAY_TEXT.replace("H: 1 <= 1", f"H: 1 <= {digits}")
    with pytest.raises(InstanceError, match="line 5: number too long"):
        parse_instance(bad)
    with pytest.raises(InstanceError, match="line 1: number too long"):
        parse_instance(f"dim {digits}\n")
    path = tmp_path / "long.txt"
    path.write_text(bad, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "line 5: number too long" in capsys.readouterr().err


def test_parse_surfaces_rank_deficiency(tmp_path, capsys):
    """A rank-deficient gauge is a ``DefinitenessViolation``, a ``ValueError``,
    and the CLI reports it as an input error: exit status 2, nothing on
    stdout and one error line."""
    text = "version 1\ndim 2\nF: 1 0\nH: 1 0 <= 1\n"
    with pytest.raises(DefinitenessViolation):
        parse_instance(text)
    path = tmp_path / "flat.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: functionals span a proper subspace; the gauge would vanish in both directions along a line\n"


def test_parse_rejects_unknown_directives_and_bad_rows():
    with pytest.raises(InstanceError, match="unknown directive"):
        parse_instance("version 1\ndim 1\nF: 1\nQ: 1 2\n")
    with pytest.raises(InstanceError, match="relation"):
        parse_instance("version 1\ndim 1\nF: 1\nH: 1 >= 1\n")
    with pytest.raises(InstanceError, match="coefficients"):
        parse_instance("version 1\ndim 2\nF: 1\nH: 1 0 <= 1\n")
    with pytest.raises(InstanceError, match="version"):
        parse_instance("dim 1\nF: 1\nH: 1 <= 1\n")
    with pytest.raises(InstanceError, match="set block"):
        parse_instance("version 1\ndim 1\nF: 1\n")


_DIM_TWICE = "version 1\ndim 2\nF: 1 0\nF: 0 1\ndim 1\nH: 1 <= 1\n"
_VERSION_TWICE = "version 1\ndim 1\nF: 1\nversion 1\nH: 1 <= 1\n"


@pytest.mark.parametrize("text, line, message", [
    # a repeated directive's case is named by its text, its line and the word
    pytest.param(_DIM_TWICE, 5, "repeated 'dim' line", id=f"{_DIM_TWICE}-5-dim"),
    pytest.param(_VERSION_TWICE, 4, "repeated 'version' line", id=f"{_VERSION_TWICE}-4-version"),
    ("version\ndim 1\nF: 1\nH: 1 <= 1\n", 1, "expected 'version <tag>'"),
    ("version 1\nF: 1\ndim 1\nH: 1 <= 1\n", 2, "dim must come before any row"),
    ("version 1\ndim 2\nF: 1 0\nF: 0 1\nV: 0 0\nV: 1\n", 6, "expected 2 coordinates, got 1"),
    ("version 2\ndim 1\nF: 1\nH: 1 <= 1\n", None, "unsupported version '2'"),
    ("version 1\n# no dim line\n", None, "missing 'dim' line"),
    ("version 1\ndim 1\nF: 1\nH: 1 <= 1\nV: 0\n", None, "give either H rows or a V/R block, not both"),
    *[(f"version 1\n{line}\nF: 1\n", 2, "expected 'dim <positive integer>'")
      for line in ["dim", "dim 0", "dim 00", "dim +3", "dim -1", "dim 1/2", "dim 2 3"]],
    # an accepted dim is read as the number its digits spell, zeros and all
    ("version 1\ndim 007\nF: 1\n", 3, "expected 7 coefficients, got 1"),
    ("version 1\ndim 12\nF: 1\n", 3, "expected 12 coefficients, got 1"),
])
def test_parse_rejects_a_repeated_directive(text, line, message):
    """A second ``dim`` or ``version`` line is an instance error naming its
    line; a second ``dim`` after rows would otherwise leave them too long.
    So is any other misplaced or malformed directive or set block: a
    ``version`` line without its tag, a row before ``dim``, a ``V:`` line of
    the wrong length, an unsupported version, no ``dim`` line, ``H:``
    rows next to a ``V:`` block and a ``dim`` that is not one token of
    ASCII digits above 0 (a read ``dim`` shows in the next row's count).
    Each has its message, and its line where
    the parser names one (None where the fault is found after the last
    line)."""
    where = "" if line is None else f"line {line}: "
    with pytest.raises(InstanceError, match=f"^{re.escape(where + message)}$"):
        parse_instance(text)


@pytest.mark.parametrize("text, line, word", [
    ("version 1\ndimfoo 1\nF: 1\nH: 1 <= 1\n", 2, "dimfoo"),
    ("versionX 1\ndim 1\nF: 1\nH: 1 <= 1\n", 1, "versionX"),
])
def test_parse_matches_directive_words_exactly(text, line, word):
    """``version`` and ``dim`` are whole first words, not prefixes."""
    with pytest.raises(InstanceError, match=f"^line {line}: unknown directive '{word}'$"):
        parse_instance(text)


_TOKENS = ["0", "1", "-1", "2", "-3", "1/2", "-2/3", "2/4", "-0", "0/7", "007", "-12/8", "5/1"]
_BAD_TOKENS = ["1.5", "+1", "1e3", "1/0", "x", "1_0", "\u0663"]
_LONG = "9" * (sys.get_int_max_str_digits() + 1) if hasattr(sys, "get_int_max_str_digits") else "1"


@st.composite
def _instance_texts(draw):
    """Instance text with one ``version`` and one ``dim`` line, in d = 1..3:
    valid H or V/R rows, possibly rank-deficient functionals, and at most
    one fault kind: bad tokens (one repeated), an over-long number, a wrong
    token count or a wrong relation."""
    d = draw(st.integers(1, 3))
    token = st.sampled_from(_TOKENS)
    set_key = draw(st.sampled_from(["H", "H", "H", "V", "R"]))
    rows = [["F", *draw(st.lists(token, min_size=d, max_size=d))]
            for _ in range(draw(st.sampled_from([0, 1, 2, 3, 3, 4])))]
    for _ in range(draw(st.integers(0, 4))):
        toks = draw(st.lists(token, min_size=d, max_size=d))
        if set_key == "H":
            toks += [draw(st.sampled_from(["<", "<="])), draw(token)]
        rows.append([set_key, *toks])
    if set_key == "R":
        rows.append(["V", *draw(st.lists(token, min_size=d, max_size=d))])
    fault = draw(st.sampled_from(["none", "none", "none", "token", "long", "count", "relation"]))
    if rows and fault != "none":
        row = draw(st.sampled_from(rows))
        if fault in ("token", "long"):
            bad = _LONG if fault == "long" else draw(st.sampled_from(_BAD_TOKENS))
            for victim in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2)):
                victim[draw(st.integers(1, d))] = bad
        elif fault == "count" and draw(st.booleans()):
            row.insert(1, "1")
        elif fault == "count":
            row.pop()
        elif row[0] == "H":
            row[d + 1] = ">="
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return "\n".join(["version 1", f"dim {d}", *(f"{r[0]}: " + " ".join(r[1:]) for r in rows),
                      "# end"]) + "\n"


def _outcome(parse, text):
    try:
        q, region = parse(text)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    assert repr(q) == ref_repr(q) and repr(region) == ref_repr(region)
    return q, region, (q._scale, q._rows), (region._rows, region._scales), repr((q, region))


@settings(max_examples=300, deadline=None)
@given(_instance_texts())
def test_parse_agrees_with_the_reference_parser(text):
    """On texts with one ``version`` and one ``dim`` line, the parser returns
    the values, stored ints and repr the earlier ``Fraction`` parser returns,
    each value's repr the one the earlier ``Fraction`` values printed
    (``ref_repr``), or raises the same exception class with the same message."""
    assert _outcome(parse_instance, text) == _outcome(ref_parse_instance, text)


def test_parse_v_block():
    text = "version 1\ndim 2\nF: 1 0\nF: 0 1\nV: 0 0\nV: 1 0\nR: 0 -1\n"
    _, region = parse_instance(text)
    expected = PartialPolyhedron(2, (
        Constraint((F(1), F(0)), F(1), False),
        Constraint((F(-1), F(0)), F(0), False),
        Constraint((F(0), F(1)), F(0), False),
    ))
    assert set_equal(region, expected)


def test_writer_round_trip_is_stable():
    norm, region = parse_instance(RAY_TEXT)
    once = write_instance(norm, region)
    assert once == "version 1\ndim 1\nF: 1\nH: 1 <= 1\nH: -1 < 1\n"
    again = write_instance(*parse_instance(once))
    assert once == again


def test_writer_round_trip_preserves_rationals():
    text = "version 1\ndim 2\nF: 1/2 -2/3\nF: 0 1\nH: 3/5 1 < 7/3\nH: -1 0 <= 2\n"
    norm, region = parse_instance(text)
    assert norm.functionals[0] == (F(1, 2), F(-2, 3))
    assert write_instance(norm, region) == text


def test_writer_round_trips_the_stored_values():
    """``parse(write(x)) == x`` for the gauge and the region: seeded random
    instances at d = 1..3, an arc hull, open balls with fractional centers,
    and row-less regions (the whole space, written as the V/R block of the
    origin and the unit directions).  Writing reads the stored ints and
    builds neither ``functionals`` nor ``constraints``."""
    rng = random.Random(139)
    cases = [gen_random_instance(d, 1000 * d + k) for d in (1, 2, 3) for k in range(20)]
    cases.append(gen_arc_hull(4))
    for d in (1, 2, 3):
        norm = gen_random_norm(d, rng)
        radius = F(rng.randint(1, 9), rng.randint(1, 4))
        cases += [(norm, PartialPolyhedron(d, ())),
                  (norm, ball(norm, rand_point(rng, d, span=2), radius, Closedness.OPEN).as_set)]
    for norm, region in cases:
        norm, region = [type(x)._make(**{n: getattr(x, n) for n in x._fields}) for x in (norm, region)]
        text = write_instance(norm, region)
        assert "functionals" not in vars(norm) and "constraints" not in vars(region)
        assert parse_instance(text) == (norm, region), text
    whole = "version 1\ndim 2\nF: 1 0\nF: 0 1\nV: 0 0\nR: 1 0\nR: -1 0\nR: 0 1\nR: 0 -1\n"
    assert parse_instance(whole)[1] == PartialPolyhedron(2, ())
    assert write_instance(*parse_instance(whole)) == whole


VR_WITH_A_REDUNDANT_RAY = "version 1\ndim 2\nF: 0 1\nF: -1 0\nV: 0 0\nV: 1 0\nR: 1 0\nR: 1 2\nR: 1 1\n"


def test_check_of_a_v_block_reads_the_set_not_its_listing(tmp_path, capsys):
    """``check --no-timing`` of a V/R file prints what it prints for the file
    ``write_instance`` makes of it, but for the ``instance:`` line: the
    closure is the double description of the set's facets, whatever
    generators the block lists.  The redundant ray (1, 1) above, and 60
    seeded V/R files at d = 1..3 with a redundant vertex and ray."""
    rng = random.Random(149)
    texts = [VR_WITH_A_REDUNDANT_RAY]
    for _ in range(60):
        d = rng.randint(1, 3)
        verts = [rand_point(rng, d, span=2) for _ in range(rng.randint(1, d + 2))]
        verts.append(tuple((a + b) / 2 for a, b in zip(verts[0], verts[-1])))
        rays = [rand_point(rng, d, span=2, max_den=1) for _ in range(rng.randint(0, d + 1))]
        rays += [tuple(map(sum, zip(*rays[:2])))] if len(rays) > 1 else []
        lines = [f"F: {' '.join(map(str, f))}" for f in gen_random_norm(d, rng).functionals]
        lines += [f"{key}: {' '.join(map(str, v))}" for key, vs in (("V", verts), ("R", rays)) for v in vs]
        texts.append(f"version 1\ndim {d}\n" + "\n".join(lines) + "\n")
    verdicts = set()
    for text in texts:
        listed, written = tmp_path / "listed.txt", tmp_path / "written.txt"
        listed.write_text(text, encoding="utf-8")
        written.write_text(write_instance(*parse_instance(text)), encoding="utf-8")
        reports = []
        for path in (listed, written):
            assert main(["check", str(path), "--no-timing"]) == 0
            reports.append(capsys.readouterr().out.splitlines()[1:])
        assert reports[0] == reports[1], text
        verdicts.add(reports[0][3])
    assert verdicts == {"verdict: COMPACT", "verdict: NOT_COMPACT"}


def test_lattice_norm_examples():
    assert gen_lattice_norm(3, "sup").functionals == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert gen_lattice_norm(2, "one").functionals == ((1, 0), (0, 1), (1, 1))
    assert gen_lattice_norm(1, "sup").functionals == ((1,),)
    with pytest.raises(ValueError):
        gen_lattice_norm(13, "one")


def test_one_flavor_matches_positive_part_sum():
    """Subset-sum rows evaluate the sum of positive parts (case analysis)."""
    rng = random.Random(59)
    for dim in (1, 2, 3, 4):
        q = gen_lattice_norm(dim, "one")
        for _ in range(40):
            x = rand_point(rng, dim)
            expected = sum((max(F(0), c) for c in x), F(0))
            assert gauge_eval(q, x) == expected


def test_arc_hull_samples_and_gauge_bound():
    norm, region = gen_arc_hull(2)
    for pt in ((F(1), F(0), F(0)), (F(3, 5), F(0), F(4, 5))):
        assert member(region, pt)
        assert gauge_eval(norm, pt) <= 1
    # the arc's limit point sits in the closure but not in the region
    assert not member(region, (F(0), F(0), F(1)))
    from asymgeo.polyhedron import closure
    hull = closure(region)
    assert (F(0), F(0), F(1)) in hull.vertices


def test_arc_hull_is_compact_with_center():
    norm, region = gen_arc_hull(3)
    inst = Instance.build(norm, region)
    cert = decide_compact(inst)
    assert cert.verdict is Verdict.COMPACT
    assert sandwich_certify(cert.center, region, norm)


def test_random_instances_are_valid_and_deterministic():
    for dim in (1, 2, 3):
        n1, r1 = gen_random_instance(dim, 42)
        n2, r2 = gen_random_instance(dim, 42)
        assert n1 == n2 and r1 == r2
        assert n1.dim == dim


def _stored(norm, region) -> tuple:
    """The stored ints of a generated pair, each number with its type."""
    numbers = [norm._scale, *region._scales, *(a for f in norm._rows for a in f),
               *(a for c, b, _ in region._rows for a in (*c, b))]
    return (norm._scale, norm._rows, region._rows, region._scales), {type(a) for a in numbers}


def test_random_generator_agrees_with_the_reference_generator(monkeypatch):
    """For the seeds 1000*d + k, d = 1..12 (k < 32 up to d = 8, k < 8 above),
    the integer generator returns the values, stored ints (all of type int)
    and ``write_instance`` text of the earlier ``Fraction`` generator
    (``ref_gen_random_instance``).  Both retry branches run on these seeds:
    some gauge draw is rank deficient and drawn again, and some region draw
    is rejected as empty."""
    redrawn, rejected = [], []

    def definite(dim, rows):
        try:
            _check_definite(dim, rows)
        except DefinitenessViolation:
            redrawn.append(dim)
            raise

    def empty(region):
        if partial_is_empty(region):
            rejected.append(region.dim)
            return True
        return False

    # norm._gauge runs the check; the reference generator's make_norm runs
    # it too, so only the integer generator runs with the counters in place
    monkeypatch.setattr("asymgeo.norm._check_definite", definite)
    monkeypatch.setattr(generators, "partial_is_empty", empty)
    seeds = [(d, 1000 * d + k) for d in range(1, 13) for k in range(32 if d < 9 else 8)]
    made = [gen_random_instance(d, seed) for d, seed in seeds]
    monkeypatch.undo()
    for (d, seed), got in zip(seeds, made):
        want = ref_gen_random_instance(d, seed)
        assert got == want, seed
        assert _stored(*got) == (_stored(*want)[0], {int}), seed
        assert write_instance(*got) == write_instance(*want), seed
    assert redrawn and rejected


def test_generator_draws_are_randint_draws():
    """``generators._randint(rng, lo, hi)`` returns what
    ``randint(lo, hi)`` returns on the same seed and leaves the generator
    where randint leaves it, so the next ``random()`` is equal: seeds 0-19,
    every width 1-65 (each power of two up to 64 and its neighbours) and
    lo in -7, 0 and 3, three draws each.  A width of 1 draws too, as
    randint does.  ``_draws``, which inlines the draw, gives the pairs
    ``randint(-3, 3), randint(1, 3)`` in lowest terms."""
    for seed in range(20):
        for width in range(1, 66):
            for lo in (-7, 0, 3):
                want, got = random.Random(seed), random.Random(seed)
                hi = lo + width - 1
                assert [generators._randint(got, lo, hi) for _ in range(3)] == \
                    [want.randint(lo, hi) for _ in range(3)], (seed, width, lo)
                assert got.random() == want.random(), (seed, width, lo)
        want, got = random.Random(seed), random.Random(seed)
        ps, qs = generators._draws(got, 40)
        pairs = [Fraction(want.randint(-3, 3), want.randint(1, 3)) for _ in range(40)]
        assert list(zip(ps, qs)) == [(f.numerator, f.denominator) for f in pairs], seed
        assert got.random() == want.random(), seed


def test_generators_make_no_fraction(monkeypatch):
    """The random and lattice generators draw, clear and build their values on
    ints: ``gen_random_instance`` for d = 1..5 and ``gen_lattice_norm`` in
    both flavors make no ``Fraction``."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for d in range(1, 6):
        for k in range(10):
            gen_random_instance(d, 1000 * d + k)
        for flavor in ("sup", "one"):
            gen_lattice_norm(d, flavor)
    Fraction(1, 2)  # the counter sees a Fraction that is made
    assert made == [(1, 2)]


def test_reference_suite_passes_and_is_deterministic():
    reports, ok = run_reference_suite()
    assert ok
    names = [r.name for r in reports]
    assert names[0] == "half-open interval (-1,1]"
    arc_sizes = [len(r.center) for r in reports if r.name.startswith("arc-hull")]
    assert arc_sizes == sorted(arc_sizes) and len(set(arc_sizes)) == len(arc_sizes)
    again, ok2 = run_reference_suite()
    assert ok2
    assert [r.render(include_timing=False) for r in reports] == \
        [r.render(include_timing=False) for r in again]


def test_suite_report_documents_center_escape():
    reports, _ = run_reference_suite()
    arc_notes = [r.note for r in reports if r.name.startswith("arc-hull")]
    assert arc_notes and all(n and "no compact center" in n for n in arc_notes)


def test_render_svg_marks_the_corner():
    norm, region = parse_instance(
        "version 1\ndim 2\nF: 1 0\nF: 0 1\n"
        "H: 1 0 <= 1\nH: 0 1 <= 1\nH: -1 0 <= 0\nH: 0 -1 <= 0\n")
    svg = render_svg(norm, region)
    assert svg.startswith("<?xml")
    assert '<circle cx="1.0000" cy="-1.0000"' in svg
    assert svg == render_svg(norm, region)  # deterministic


def test_render_symmetric_norm_has_no_fan():
    norm, region = parse_instance(
        "version 1\ndim 2\nF: 1 0\nF: 0 1\nF: -1 0\nF: 0 -1\n"
        "H: 1 0 <= 1\nH: 0 1 <= 1\nH: -1 0 <= 0\nH: 0 -1 <= 0\n")
    assert "<line" not in render_svg(norm, region)


def test_render_rejects_other_dimensions():
    norm, region = parse_instance(RAY_TEXT)
    with pytest.raises(RenderError):
        render_svg(norm, region)


def test_render_clips_unbounded_regions():
    # a translate of the degeneracy cone: unbounded, still renderable
    norm, region = parse_instance(
        "version 1\ndim 2\nF: 1 0\nF: 0 1\nH: 1 0 <= 2\nH: 0 1 <= 1\n")
    svg = render_svg(norm, region)
    assert "<polygon" in svg and svg.rstrip().endswith("</svg>")


# --- command-line entry -------------------------------------------------------


def test_cli_check_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "ray.txt"
    path.write_text(RAY_TEXT, encoding="utf-8")
    assert main(["check", str(path), "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "verdict: COMPACT" in out and "center: (1)" in out
    for cid in ("T1", "T2", "T3", "T4", "T5", "T6"):
        assert f"{cid}: PASS" in out


def test_cli_gen_round_trips(tmp_path, capsys):
    assert main(["gen", "random", "--dim", "2", "--seed", "9"]) == 0
    text = capsys.readouterr().out
    norm, region = parse_instance(text)
    assert norm.dim == 2
    assert write_instance(norm, region) == text


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("version 1\ndim 1\nF: 1\nH: 1/0 <= 1\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "missing.txt")]) == 2


def test_cli_render_dimension_error(tmp_path, capsys):
    path = tmp_path / "ray.txt"
    path.write_text(RAY_TEXT, encoding="utf-8")
    assert main(["render", str(path)]) == 2


def test_cli_render_writes_file(tmp_path, capsys):
    src = tmp_path / "square.txt"
    src.write_text(
        "version 1\ndim 2\nF: 1 0\nF: 0 1\n"
        "H: 1 0 <= 1\nH: 0 1 <= 1\nH: -1 0 <= 0\nH: 0 -1 <= 0\n",
        encoding="utf-8")
    out = tmp_path / "square.svg"
    assert main(["render", str(src), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("<?xml")


def test_cli_theta_and_ball(tmp_path, capsys):
    path = tmp_path / "ray.txt"
    path.write_text(RAY_TEXT, encoding="utf-8")
    assert main(["theta", str(path)]) == 0
    assert "generator: (-1)" in capsys.readouterr().out
    assert main(["ball", str(path), "--radius", "2", "--open"]) == 0
    assert "H: 1 < 2" in capsys.readouterr().out


def test_cli_ball_prints_the_rows_write_instance_writes(tmp_path, capsys):
    """``asymgeo ball`` prints the ``H:`` lines that ``write_instance`` writes
    for ``ball(...).as_set``, and for the region the public constructor
    makes of the earlier ``Fraction`` rows (``ref_ball_set``): seeded gauges
    at d = 1..3, integer and fractional centers and radii, open and closed,
    and the open ball of radius 0 with its ``0 < 0`` row."""
    rng = random.Random(107)
    for n in range(24):
        d = rng.randint(1, 3)
        norm = gen_random_norm(d, rng)
        center = rand_point(rng, d, span=2)
        radius = F(0) if n % 6 == 0 else F(rng.randint(1, 9), rng.randint(1, 4))
        closedness = Closedness.OPEN if n % 2 == 0 else Closedness.CLOSED
        path = tmp_path / "gauge.txt"
        path.write_text(write_instance(norm, PartialPolyhedron(d, (Constraint((0,) * d, 0, False),))),
                        encoding="utf-8")
        argv = ["ball", str(path), "--radius", str(radius), "--center=" + ",".join(map(str, center))]
        assert main(argv + (["--open"] if closedness is Closedness.OPEN else [])) == 0
        written = write_instance(norm, ball(norm, center, radius, closedness).as_set)
        strict = closedness is Closedness.OPEN
        assert written == write_instance(norm, ref_ball_set(norm, center, radius, strict))
        expected = [line for line in written.splitlines() if line.startswith("H:")]
        assert capsys.readouterr().out.splitlines() == expected


def test_cli_ball_takes_a_negative_center_in_the_equals_form(tmp_path, capsys):
    """A center with a negative first coordinate is given as ``--center=-1,2``
    (argparse reads a separate ``-1,2`` as an option), and the rows printed
    are the ball's, translated to that center."""
    path = tmp_path / "sup.txt"
    path.write_text("version 1\ndim 2\nF: 1 0\nF: 0 1\nH: 0 0 <= 0\n", encoding="utf-8")
    assert main(["ball", str(path), "--radius", "1", "--center=-1,2"]) == 0
    assert capsys.readouterr().out == "H: 1 0 <= 0\nH: 0 1 <= 3\n"


@pytest.mark.parametrize("option", [["--radius", "1.5"], ["--radius", "1e3"], ["--radius", "2/0"],
                                    ["--radius", "2", "--center", "1_0"], ["--radius", "2", "--center", "+1"]])
def test_cli_ball_rejects_numbers_outside_the_grammar(tmp_path, capsys, option):
    path = tmp_path / "ray.txt"
    path.write_text(RAY_TEXT, encoding="utf-8")
    assert main(["ball", str(path)] + option) == 2
    assert "bad rational" in capsys.readouterr().err


@pytest.mark.parametrize("center", ["", "1,2,"])
def test_cli_ball_rejects_an_empty_center_coordinate(tmp_path, capsys, center):
    """An empty ``--center=`` is a center of one empty coordinate, not the
    origin: it exits 2 as an empty last coordinate does, naming the token."""
    path = tmp_path / "sup.txt"
    path.write_text("version 1\ndim 2\nF: 1 0\nF: 0 1\nH: 0 0 <= 0\n", encoding="utf-8")
    assert main(["ball", str(path), "--radius", "1", f"--center={center}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--center: bad rational ''" in captured.err


def test_cli_center_reports_witness(tmp_path, capsys):
    path = tmp_path / "ray_up.txt"
    path.write_text("version 1\ndim 1\nF: 1\nH: -1 <= 0\n", encoding="utf-8")
    assert main(["center", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: NOT_COMPACT" in out and "BadRecessionDirection" in out


def _triangle_file(tmp_path):
    """The catalog triangle under the symmetric gauge, written to a file."""
    entry = next(e for e in reference_catalog() if e.name == "triangle under a symmetric gauge")
    path = tmp_path / "triangle.txt"
    path.write_text(write_instance(entry.norm, entry.region), encoding="utf-8")
    return path


def test_cli_ext_prints_the_region_extreme_points(tmp_path, capsys):
    assert main(["ext", str(_triangle_file(tmp_path))]) == 0
    assert capsys.readouterr().out == "ext: (0, 0)\next: (0, 1)\next: (1, 0)\n"


def test_cli_center_prints_the_suite_center(tmp_path, capsys):
    """``center`` on a COMPACT file prints one ``center:`` line per vertex,
    the center the reference suite reports for the same instance."""
    assert main(["center", str(_triangle_file(tmp_path))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: COMPACT"
    golden = (Path(__file__).parent / "data" / "suite_no_timing.txt").read_text(encoding="utf-8")
    block = next(b for b in golden.split("\n\n") if b.startswith("instance: triangle under a symmetric gauge\n"))
    expected = next(line for line in block.splitlines() if line.startswith("center: "))
    assert "center: " + "; ".join([line.removeprefix("center: ") for line in out[1:]]) == expected


def test_cli_gen_arc_hull_writes_the_generated_instance(capsys):
    assert main(["gen", "arc-hull", "--arc", "8"]) == 0
    assert capsys.readouterr().out == write_instance(*gen_arc_hull(8))


def test_cli_render_writes_to_stdout_without_an_output_file(tmp_path, capsys):
    assert main(["render", str(_triangle_file(tmp_path))]) == 0
    golden = Path(__file__).parent / "data" / "render" / "triangle.svg"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_cli_check_ends_with_its_timing_line(tmp_path, capsys):
    """Without ``--no-timing`` the report gains one last line, its time, and
    is otherwise the report printed with it."""
    path = str(_triangle_file(tmp_path))
    assert main(["check", path]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert main(["check", path, "--no-timing"]) == 0
    assert re.fullmatch(r"timing_ms: [0-9]+\.[0-9]", timed[-1]), timed[-1]
    assert timed[:-1] == capsys.readouterr().out.splitlines()


def test_importing_a_cli_module_loads_only_its_own_imports():
    """``asymgeo/cli/__init__.py`` re-exports nothing, so a fresh
    interpreter that imports the generators and the parser loads no other
    module of ``asymgeo.cli``: not the suite, not the renderer."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, asymgeo.cli.generators, asymgeo.cli.instances\n"
            "print(sorted(m for m in sys.modules if m.startswith('asymgeo.cli')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['asymgeo.cli', 'asymgeo.cli.generators', 'asymgeo.cli.instances']\n"


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_cli_gen_random_rejects_nonpositive_dimension(dim):
    """A separate process with a timeout, so that a resampling loop that never ends fails the test."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "asymgeo.cli.main", "gen", "random", "--dim", dim],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert "dimension must be positive" in proc.stderr
    for gen in (gen_random_norm, gen_random_region):
        with pytest.raises(ValueError, match="dimension must be positive"):
            gen(int(dim), random.Random(0))


@pytest.mark.parametrize("kind,dim", [("random", "1000000"), ("random", "13"), ("sup", "13")])
def test_cli_gen_rejects_dimensions_above_the_limit(kind, dim, capsys):
    """A separate process with a timeout: the limit is checked before any
    matrix of that size is built.  ``main`` in this process refuses it the
    same way, with exit status 2, nothing on stdout and one error line."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "asymgeo.cli.main", "gen", kind, "--dim", dim],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"dimension {dim} is above the gen limit 12" in proc.stderr
    assert main(["gen", kind, "--dim", dim]) == 2
    assert capsys.readouterr() == ("", f"error: dimension {dim} is above the gen limit 12\n")


def test_generators_reject_bad_parameters():
    """The lattice gauge wants a positive dimension and a known flavor, and
    the arc hull at least two segments."""
    with pytest.raises(ValueError, match="^dimension must be positive$"):
        gen_lattice_norm(0, "sup")
    with pytest.raises(ValueError, match="^unknown flavor 'taxi'; use 'sup' or 'one'$"):
        gen_lattice_norm(2, "taxi")
    with pytest.raises(ValueError, match="^n_arc must be at least 2$"):
        gen_arc_hull(1)


def test_cli_gen_takes_the_limit_itself(capsys):
    assert main(["gen", "sup", "--dim", "12"]) == 0
    norm, _ = parse_instance(capsys.readouterr().out)
    assert norm.dim == 12


def test_cli_check_rejects_a_dim_above_the_limit(tmp_path, capsys):
    """A parsed ``dim`` obeys the ``gen`` limit: ``dim 13`` is an instance
    error naming its line, and ``check`` exits 2."""
    text = "version 1\ndim 13\nF: " + " ".join(["1"] * 13) + "\n"
    with pytest.raises(InstanceError, match="line 2: dim 13 is above the limit 12"):
        parse_instance(text)
    path = tmp_path / "dim13.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "line 2: dim 13 is above the limit 12" in capsys.readouterr().err


def test_cli_gen_one_flavor(capsys):
    assert main(["gen", "one", "--dim", "3"]) == 0
    norm, _ = parse_instance(capsys.readouterr().out)
    assert len(norm.functionals) == 7  # all nonempty coordinate subsets


def test_cli_suite_exit_code(capsys):
    assert main(["suite", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "suite: ok" in out


def test_cli_suite_output_matches_golden_file(capsys):
    """Every verdict, center, witness and claim line stays byte-identical."""
    golden = Path(__file__).parent / "data" / "suite_no_timing.txt"
    assert main(["suite", "--no-timing"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def _ball_reports() -> str:
    """The ``check --no-timing`` reports of every instance file under
    ``tests/data/balls``, in name order: closed and open one-norm and sup
    lattice balls at d = 2..4 and regions cut by a proper subset of their
    functionals (``cut-a``, ``cut-b``).  Each is decided once on its parsed
    gauge, as ``check`` decides it, and once more on a gauge value that has
    already decided its closed unit ball with T1-T6, named ``..., after a
    closed ball``; the reports are separated by blank lines."""
    reports = []
    for path in sorted((Path(__file__).parent / "data" / "balls").glob("*.txt")):
        name = f"tests/data/balls/{path.name}"
        text = path.read_text(encoding="utf-8")
        reports.append(_check(name, *parse_instance(text)).render(include_timing=False))
        q, region = parse_instance(text)
        assert _check("unit ball", q, ball(q, (F(0),) * q.dim, 1, Closedness.CLOSED).as_set).verdict == "COMPACT"
        reports.append(_check(f"{name}, after a closed ball", q, region).render(include_timing=False))
    return "\n".join(reports)


def test_ball_check_reports_match_golden_file():
    """The ball and cut reports (``_ball_reports``) stay byte-identical, against
    ``tests/data/balls_no_timing.txt``: a decision does not depend on what its
    gauge value decided before."""
    golden = Path(__file__).parent / "data" / "balls_no_timing.txt"
    assert _ball_reports() == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("dim", range(1, 13))
def test_gen_random_output_matches_golden_file(dim, capsys):
    """``gen random --dim d --seed 1000*d+3`` stays byte-identical for d = 1..12,
    against ``tests/data/gen``.  Each draw the generator rejects as empty moves
    its random stream, so the bytes pin every emptiness decision on the way."""
    seed = 1000 * dim + 3
    assert main(["gen", "random", "--dim", str(dim), "--seed", str(seed)]) == 0
    golden = Path(__file__).parent / "data" / "gen" / f"random-{seed}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["sup", "one"])
def test_gen_lattice_output_matches_golden_file(kind, capsys):
    """``gen sup|one --dim 3`` (the lattice gauge over the unit box) stays
    byte-identical, against ``tests/data/gen``."""
    assert main(["gen", kind, "--dim", "3"]) == 0
    golden = Path(__file__).parent / "data" / "gen" / f"{kind}-3.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_gen_arc_hull_output_matches_golden_file(capsys):
    """``gen arc-hull --arc 16`` stays byte-identical, against
    ``tests/data/gen``: the hull's facets in their sorted order, then the
    strict cut."""
    assert main(["gen", "arc-hull", "--arc", "16"]) == 0
    golden = Path(__file__).parent / "data" / "gen" / "arc-hull-16.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_render_output_matches_golden_files():
    """``render`` stays byte-identical: the two 2-D catalog instances and
    ``gen random --dim 2`` seeds 2001-2005, each against its SVG under
    ``tests/data/render``."""
    files = {"unit square, sup lattice gauge": "unit-square", "triangle under a symmetric gauge": "triangle"}
    cases = [(files[e.name], e.norm, e.region) for e in reference_catalog() if e.region.dim == 2]
    cases += [(f"random-{seed}", *gen_random_instance(2, seed)) for seed in range(2001, 2006)]
    assert len(cases) == 7
    golden = Path(__file__).parent / "data" / "render"
    for name, norm, region in cases:
        assert render_svg(norm, region) == (golden / f"{name}.svg").read_text(encoding="utf-8"), name
