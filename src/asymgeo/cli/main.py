"""Command-line interface.

Exit codes: 0 on success, 1 when a suite detects a mismatch, 2 on input
errors (bad files, invalid gauges, wrong dimensions).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from asymgeo.compactness import Instance, decide_compact, region_extreme_points
from asymgeo.norm import Closedness, ball, degeneracy_cone
from asymgeo.cli.generators import ONE_FLAVOR_DIM_LIMIT, _units, gen_arc_hull, gen_lattice_norm, gen_random_instance
from asymgeo.cli.instances import InstanceError, _h_line, _parse_rational, parse_instance, write_instance
from asymgeo.cli.render import render_svg
from asymgeo.cli.suite import _check, _fmt_point, run_reference_suite
from asymgeo.polyhedron import PartialPolyhedron


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _cmd_check(args) -> int:
    norm, region = _load(args.file)
    sys.stdout.write(_check(args.file, norm, region).render(include_timing=not args.no_timing))
    return 0


def _cmd_center(args) -> int:
    norm, region = _load(args.file)
    cert = decide_compact(Instance.build(norm, region))
    print(f"verdict: {cert.verdict.value}")
    if cert.center is not None:
        for v in cert.center.vertices:
            print(f"center: {_fmt_point(v)}")
    elif cert.witness is not None:
        print(f"witness: {cert.witness!r}")
    return 0


def _cmd_ext(args) -> int:
    norm, region = _load(args.file)
    for v in region_extreme_points(Instance.build(norm, region)):
        print(f"ext: {_fmt_point(v)}")
    return 0


def _cmd_theta(args) -> int:
    norm, _ = _load(args.file)
    for g in degeneracy_cone(norm).generators:
        print(f"generator: {_fmt_point(g)}")
    return 0


def _cmd_ball(args) -> int:
    norm, _ = _load(args.file)
    center = tuple(_parse_rational(tok, "--center") for tok in args.center.split(",")) \
        if args.center is not None else (Fraction(0),) * norm.dim
    closed = Closedness.OPEN if args.open else Closedness.CLOSED
    b = ball(norm, center, _parse_rational(args.radius, "--radius"), closed)
    for row, s in zip(b.as_set._rows, b.as_set._scales):
        print(_h_line(*row, s))
    return 0


def _cmd_suite(args) -> int:
    reports, ok = run_reference_suite()
    for rep in reports:
        sys.stdout.write(rep.render(include_timing=not args.no_timing))
        sys.stdout.write("\n")
    print(f"suite: {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    if args.dim > ONE_FLAVOR_DIM_LIMIT:
        raise InstanceError(f"dimension {args.dim} is above the gen limit {ONE_FLAVOR_DIM_LIMIT}")
    if args.kind in ("sup", "one"):
        norm = gen_lattice_norm(args.dim, args.kind)
        # a canonical bounded sample region: the unit box 0 <= x <= 1, of int rows
        rows = tuple([row for e in _units(args.dim)
                      for row in ((e, 1, False), (tuple([-x for x in e]), 0, False))])
        region = PartialPolyhedron._make(dim=args.dim, _rows=rows, _scales=(1,) * len(rows))
    elif args.kind == "random":
        norm, region = gen_random_instance(args.dim, args.seed)
    else:  # arc-hull: argparse restricts the kinds
        norm, region = gen_arc_hull(args.arc)
    sys.stdout.write(write_instance(norm, region))
    return 0


def _cmd_render(args) -> int:
    norm, region = _load(args.file)
    svg = render_svg(norm, region)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymgeo",
        description="Exact compactness certificates for polyhedral asymmetric gauges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide compactness and run the structure checks")
    p.add_argument("file")
    p.add_argument("--no-timing", action="store_true", help="omit the timing line")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("center", help="print the center polytope or the witness")
    p.add_argument("file")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("ext", help="print the region's extreme points")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ext)

    p = sub.add_parser("theta", help="print the degeneracy-cone generators")
    p.add_argument("file")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("ball", help="print a gauge ball as inequality rows")
    p.add_argument("file")
    p.add_argument("--radius", required=True)
    p.add_argument("--center", default=None,
                   help="comma-separated rationals; a negative first coordinate needs the = form, --center=-1,2")
    p.add_argument("--open", action="store_true", help="open ball (default closed)")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("suite", help="run the built-in reference suite")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("gen", help="emit a generated instance file")
    p.add_argument("kind", choices=["sup", "one", "random", "arc-hull"])
    p.add_argument("--dim", type=int, default=2, help=f"at most {ONE_FLAVOR_DIM_LIMIT}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arc", type=int, default=4, help="segment count for arc-hull")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="render a 2-D instance to SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
