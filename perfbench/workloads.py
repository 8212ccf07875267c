"""Workloads, the commands they run and the checks on their outputs.

A workload is a list of cases; a case is one polygon and the commands a
user runs on it, in order. Each command calls the public functions the
matching `ruledpoly` subcommand calls, in the same order, and returns
the JSON text the CLI would print. Checks read that text back, outside
the timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from ruledpoly import (
    Direction,
    FamilyParams,
    Polygon,
    PolygonError,
    as_fraction,
    brute_force_complexity,
    load_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    reeb_graph,
    reeb_to_dict,
)

import inputs


@dataclass
class Case:
    name: str
    family: str
    commands: tuple[str, ...]
    data: bytes = b""
    spikes: int = 0                 # stars: min_leaves >= spikes - 4
    vertices: list | None = None    # big-star: certified ring, rebuilt per job


def _spread(lo: int, hi: int, count: int, skew: float = 1.0) -> list[int]:
    """count sizes from lo to hi, log-spaced; skew > 1 puts more of them near lo."""
    return [round(lo * (hi / lo) ** ((i / (count - 1)) ** skew)) for i in range(count)]


def _file(name, family, commands, outer, holes=(), spikes=0) -> Case:
    return Case(name, family, commands, inputs.document(outer, holes), spikes)


# -- case lists: sizes are fixed, the seed only moves the geometry ----------

_SESSION = ("complexity", "reeb")


def files_cases(rng: random.Random) -> tuple[list[Case], Case]:
    """111 files with 200 to 1500 vertices, 11 of them invalid.

    Validation is quadratic in the vertex count today, so the sizes of
    the stars and the hole counts of the perforated polygons lean
    towards the small end to keep one pass near 10 s.
    """
    cases = []
    for n in _spread(200, 1500, 16, skew=4):
        cases.append(_file(f"star-{n}-{len(cases)}", "star", _SESSION,
                           inputs.spiked_star(rng, n // 2), spikes=n // 2))
    for n in _spread(200, 1500, 34, skew=2):
        cases.append(_file(f"ring-{n}-{len(cases)}", "ring", _SESSION,
                           inputs.radial_ring(rng, n, 1.0, 4.0)))
    for n in _spread(200, 1500, 34):
        cases.append(_file(f"comb-{n}-{len(cases)}", "comb", _SESSION,
                           inputs.comb(rng, (n + 1) // 5)))
    for h, n in zip(_spread(10, 100, 16, skew=4), reversed(_spread(300, 1500, 16))):
        outer, holes = inputs.perforated(rng, max(100, n - 6 * h), h)
        cases.append(_file(f"perforated-{h}h-{len(cases)}", "perforated", _SESSION, outer, holes))
    for n in _spread(200, 1500, 5):
        cases.append(_file(f"crossing-{n}", "crossing", ("reject",), inputs.crossing_ring(rng, n)))
    for defect in ("touching_holes", "hole_outside"):
        for h in (20, 40, 60):
            outer, holes = inputs.perforated(rng, 300, h, defect)
            cases.append(_file(f"{defect}-{h}h", defect, ("reject",), outer, holes))
    rng.shuffle(cases)
    warmup = _file("warmup-ring-300", "ring", _SESSION, inputs.radial_ring(rng, 300, 1.0, 4.0))
    return cases, warmup


# 1e4, 2e4, 2.5e4 and 1e5 vertices. The two middle stars are close in
# size, so the median complexity command falls between samples of two
# stars taken at different moments, not among one star's repeats.
BIG_STAR_SPIKES = (5000, 10000, 12500, 50000)
# five complexity commands and one reeb per star; jobs run round-robin over
# the stars, so the repeats fall before and after the long reeb sweeps
_BIG_STAR_COMMANDS = ("complexity", "complexity", "reeb", "complexity", "complexity", "complexity")


def big_star_cases(rng: random.Random, tracer) -> tuple[list[Case], Case]:
    """lower_bound_polygon stars, built here through the certified route."""

    def star(spikes: int) -> Case:
        params = FamilyParams(spikes, Fraction(rng.randint(350, 450), 100),
                              Fraction(rng.randint(75, 125), 100))
        with tracer.span("generators.lower_bound"):
            P = lower_bound_polygon(params)
        return Case(f"lower-bound-{spikes}", "star", _BIG_STAR_COMMANDS, spikes=spikes,
                    vertices=list(P.outer.vertices))

    cases = [star(m) for m in BIG_STAR_SPIKES]
    warmup = star(2100)  # 4200 vertices: the smallest star on the certified route
    warmup.commands = _SESSION
    return cases, warmup


def small_oracle_cases(rng: random.Random) -> tuple[list[Case], Case]:
    """150 polygons with 8 to about 48 vertices, a quarter of them with holes.

    The oracle costs about n^3, so sizes lean towards the small end.
    """
    session = ("complexity", "reeb", "oracle")
    cases = []
    for i, n in enumerate(_spread(8, 48, 150, skew=7)):
        family = ("ring", "star", "comb", "perforated")[i % 4]
        name = f"{family}-{n}-{i}"
        if family == "ring":
            cases.append(_file(name, family, session, inputs.radial_ring(rng, n, 1.0, 4.0)))
        elif family == "star":
            cases.append(_file(name, family, session,
                               inputs.spiked_star(rng, n // 2), spikes=n // 2))
        elif family == "comb":
            cases.append(_file(name, family, session, inputs.comb(rng, max(2, (n + 1) // 5))))
        else:
            h = 1 + i // 4 % 2
            outer, holes = inputs.perforated(rng, max(8, n - 6 * h), h)
            cases.append(_file(name, family, session, outer, holes))
    rng.shuffle(cases)
    warmup = _file("warmup-ring-24", "ring", session, inputs.radial_ring(rng, 24, 1.0, 4.0))
    return cases, warmup


Job = tuple[Case, str]  # one command on one case


def _in_order(cases: list[Case]) -> list[Job]:
    return [(case, kind) for case in cases for kind in case.commands]


def _round_robin(cases: list[Case]) -> list[Job]:
    """The i-th command of every case before any (i+1)-th: repeats spread over the pass."""
    rounds = max(len(case.commands) for case in cases)
    return [(case, case.commands[i]) for i in range(rounds) for case in cases
            if i < len(case.commands)]


def make_jobs(workload: str, seed: int, tracer) -> tuple[list[Job], list[Job]]:
    """The timed job list and the warm-up jobs of a workload."""
    rng = random.Random(f"{workload}/{seed}")
    with tracer.span("bench.inputs"):
        if workload == "big-star":
            cases, warmup = big_star_cases(rng, tracer)
            return _round_robin(cases), _in_order([warmup])
        cases, warmup = files_cases(rng) if workload == "files" else small_oracle_cases(rng)
        return _in_order(cases), _in_order([warmup])


# -- commands: the CLI's library calls, in the CLI's order ----------------

def job_source(tr, case: Case):
    """File bytes, or on big-star a fresh Polygon so no cached mask or cone carries over."""
    if case.vertices is None:
        return case.data
    with tr.span("geometry.load"):
        P = Polygon(case.vertices, validate=False)
    tr.count("geometry.load.calls")
    tr.count("geometry.load.vertices", P.n)
    return P


def _load(tr, source):
    if isinstance(source, Polygon):
        return source
    with tr.span("geometry.load"):
        P = load_polygon(source)
    tr.count("geometry.load.calls")
    tr.count("geometry.load.vertices", P.n)
    return P


def _exact(value) -> Fraction:
    """A witness coordinate read back exactly from the emitted JSON."""
    return Fraction(value) if isinstance(value, float) else as_fraction(value)


def cmd_complexity(tr, source, outputs):
    P = _load(tr, source)
    if tr.on:
        with tr.span("geometry.reflex"):
            P.reflex_indices()
    with tr.span("complexity.solve"):
        res = parallel_reeb_complexity(P)
    with tr.span("cli.emit"):
        text = json.dumps(res.as_dict())
    tr.count("complexity.events", 2 * res.k)
    tr.count("complexity.degenerate", int(res.degenerate))
    tr.count("cli.emit_bytes", len(text))
    outputs["n"] = P.n
    return text


def cmd_reeb(tr, source, outputs):
    P = _load(tr, source)
    dx, dy = json.loads(outputs["complexity"])["witness"]
    v = Direction(_exact(dx), _exact(dy))
    with tr.span("reeb.sweep"):
        g = reeb_graph(P, v)
    with tr.span("cli.emit"):
        text = json.dumps(reeb_to_dict(g))
    if tr.on:
        tr.counts["complexity.witness_bits"] = max(
            tr.counts["complexity.witness_bits"], *(abs(c).bit_length() for c in v.canonical_pair()))
    tr.count("reeb.nodes", len(g.nodes))
    tr.count("cli.emit_bytes", len(text))
    return text


def cmd_oracle(tr, source, outputs):
    P = _load(tr, source)
    with tr.span("oracle.brute_force"):
        res = brute_force_complexity(P)
    with tr.span("cli.emit"):
        text = json.dumps(res.as_dict())
    tr.count("oracle.intervals", res.intervals_evaluated)
    tr.count("cli.emit_bytes", len(text))
    return text


class AcceptedInvalidFile(Exception):
    """load_polygon returned a polygon for a file built to be invalid."""


def cmd_reject(tr, source, outputs):
    try:
        with tr.span("geometry.reject"):
            P = load_polygon(source)
    except PolygonError as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AcceptedInvalidFile(f"accepted as a polygon with n={P.n}, h={P.h}")


COMMANDS = {
    "complexity": cmd_complexity,
    "reeb": cmd_reeb,
    "oracle": cmd_oracle,
    "reject": cmd_reject,
}


# -- checks: run untimed on the emitted JSON -----------------------------

def check(case: Case, kind: str, outputs: dict) -> list[str]:
    """Violated invariants of the output `kind` just added to outputs."""
    bad = []
    text = outputs[kind]
    if kind == "complexity":
        d = json.loads(text)
        ml, h = d["min_leaves"], d["h"]
        if d["c_max"] != d["k"] + 2 - 2 * h - ml:
            bad.append(f"c_max {d['c_max']} != k + 2 - 2h - min_leaves = {d['k'] + 2 - 2 * h - ml}")
        if ml > outputs["n"] // 2 + 1:
            bad.append(f"min_leaves {ml} > n // 2 + 1 = {outputs['n'] // 2 + 1}")
        if case.family == "star" and ml < case.spikes - 4:
            bad.append(f"star min_leaves {ml} < spikes - 4 = {case.spikes - 4}")
        if case.family == "comb" and ml != 2:
            bad.append(f"comb min_leaves {ml} != 2")
        first = outputs.setdefault("first_complexity", text)
        if text != first:
            bad.append("repeated complexity command gave a different result")
    elif kind == "reeb":
        g = json.loads(text)
        c = json.loads(outputs["complexity"])
        if g["l"] != c["min_leaves"]:
            bad.append(f"l {g['l']} at the emitted witness != min_leaves {c['min_leaves']}")
        if g["l"] != g["b"] + 2 - 2 * g["h"]:
            bad.append(f"l {g['l']} != b + 2 - 2h = {g['b'] + 2 - 2 * g['h']}")
        if len(g["edges"]) - len(g["nodes"]) + 1 != g["h"]:
            bad.append(f"cycle rank {len(g['edges']) - len(g['nodes']) + 1} != h {g['h']}")
    elif kind == "oracle":
        o = json.loads(text)
        c = json.loads(outputs["complexity"])
        if o["min_leaves"] != c["min_leaves"]:
            bad.append(f"oracle min_leaves {o['min_leaves']} != complexity {c['min_leaves']}")
    return bad
