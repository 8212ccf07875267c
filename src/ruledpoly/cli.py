"""Command line interface: complexity, reeb, generate, oracle, render.

Machine output is UTF-8 JSON on standard output; human-readable notes
go to standard error. Exit codes: 0 success, 1 usage error, 2
validation or parse error, 3 degenerate-only optimum (the complexity
result is still printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .complexity import parallel_reeb_complexity
from .generators import (
    FamilyParams,
    UntangleError,
    annulus_polygon,
    comb_polygon,
    lower_bound_polygon,
)
from .geometry import Direction, PolygonError, as_fraction, dump_polygon, load_polygon
from .oracle import brute_force_complexity
from .reeb import reeb_graph, reeb_to_dict
from .rendering import RenderSpec, render_svg

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str):
    with open(path, "rb") as fh:
        return load_polygon(fh)


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 2:
        raise PolygonError(f"direction must be 'dx,dy', got {text!r}")
    try:
        dx = as_fraction(parts[0].strip())
        dy = as_fraction(parts[1].strip())
    except (ValueError, ArithmeticError) as exc:
        raise PolygonError(f"unparseable direction {text!r}") from exc
    if dx == 0 and dy == 0:
        raise PolygonError("direction must be nonzero")
    return Direction(dx, dy)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _cmd_complexity(args) -> int:
    P = _load(args.file)
    res = parallel_reeb_complexity(P)
    _emit(res.as_dict())
    note = "degenerate: optimum only at a cone boundary" if res.degenerate \
        else "optimum attained on an open angular interval"
    print(f"min_leaves={res.min_leaves} c_max={res.c_max} k={res.k} h={res.h}; {note}",
          file=sys.stderr)
    return EXIT_DEGENERATE if res.degenerate else EXIT_OK


def _cmd_reeb(args) -> int:
    P = _load(args.file)
    v = _parse_direction(args.direction)
    g = reeb_graph(P, v)
    _emit(reeb_to_dict(g))
    print(f"l={g.l} b={g.b} h={g.h} nodes={len(g.nodes)} edges={len(g.edges)}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.family == "lower-bound":
        params = FamilyParams(
            n=args.n,
            r1=as_fraction(args.r1) if args.r1 is not None else Fraction(4),
            r2=as_fraction(args.r2) if args.r2 is not None else Fraction(1),
        )
        P = lower_bound_polygon(params)
    elif args.family == "comb":
        P = comb_polygon(args.teeth)
    else:
        P = annulus_polygon(as_fraction(args.outer_side), as_fraction(args.hole_side))
    text = dump_polygon(P)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {P.n} vertices, {P.h} holes to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    P = _load(args.file)
    res = brute_force_complexity(P, cap=args.cap)
    _emit(res.as_dict())
    print(f"min_leaves={res.min_leaves} over {res.intervals_evaluated} intervals; "
          f"boundary_beats_interior={res.boundary_beats_interior}", file=sys.stderr)
    return EXIT_OK


def _cmd_render(args) -> int:
    P = _load(args.file)
    v = _parse_direction(args.direction) if args.direction else None
    spec = RenderSpec(
        polygon=P,
        direction=v,
        show_cones=args.cones,
        show_ruling=args.ruling is not None,
        ruling_line_count=args.ruling if args.ruling is not None else 0,
        show_reeb=args.reeb,
        output_path=args.out,
    )
    data = render_svg(spec)
    print(f"wrote {len(data)} bytes of SVG to {args.out}", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="ruledpoly",
                     description="Reeb graphs and ruling complexity of polygons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="minimum leaf count over parallel rulings")
    p.add_argument("file")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("reeb", help="Reeb graph of one directional sweep")
    p.add_argument("file")
    p.add_argument("--direction", required=True, metavar="DX,DY")
    p.set_defaults(func=_cmd_reeb)

    p = sub.add_parser("generate", help="write a polygon from a built-in family")
    fam = p.add_subparsers(dest="family", required=True)
    lb = fam.add_parser("lower-bound", help="spiked star with linear complexity")
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--r1", default=None)
    lb.add_argument("--r2", default=None)
    lb.add_argument("--out", required=True)
    lb.set_defaults(func=_cmd_generate)
    cb = fam.add_parser("comb", help="comb with complexity exactly 2")
    cb.add_argument("--teeth", type=int, required=True)
    cb.add_argument("--out", required=True)
    cb.set_defaults(func=_cmd_generate)
    an = fam.add_parser("annulus", help="square with a centered square hole")
    an.add_argument("--outer-side", required=True)
    an.add_argument("--hole-side", required=True)
    an.add_argument("--out", required=True)
    an.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="exact brute-force minimum (small polygons)")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=64)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="write an SVG picture")
    p.add_argument("file")
    p.add_argument("--direction", default=None, metavar="DX,DY")
    p.add_argument("--cones", action="store_true")
    p.add_argument("--ruling", type=int, default=None, metavar="N")
    p.add_argument("--reeb", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, UntangleError, OSError) as exc:  # every PolygonError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
