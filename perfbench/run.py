"""End-to-end and per-layer benchmark of ruledpoly.

    python3 perfbench/run.py --workload files --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root. Each workload runs closed-loop in one
single-threaded process with one client: a command starts only after
the previous one has finished. The run sets up several times (setup_s
is the median), runs one untimed warm-up job, then repeats whole passes
over the workload's job list while another pass fits in --seconds.

With --trace 0 every command is timed with tracing off. With --trace 1
every job runs twice in a row, untraced and traced: the traced runs
give the per-layer numbers and the difference between the two is the
tracing overhead. The full report goes to standard error and to .perfbench_out/;
the last line of standard output is one JSON object with the metrics
named in BENCHMARK.json. `--workload all` runs every workload in its
own process, one after the other.
"""

import os

# numpy must not start worker threads: the benchmark is one client on one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("files", "big-star", "small-oracle")
SETUP_REPEATS = 3
# another pass starts only if this many times the longest pass still fits
FIT_MARGIN = 1.15

# The JSON line carries exactly these; every workload measures all of them.
# reeb_s, oracle_s and reject_s are in the report only: two workloads have
# no oracle or reject command, and big-star has one reeb command per star,
# too few samples for a steady median.
END_TO_END = {"complexity_s.p50": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_SPANS = {  # per-layer metric -> span whose self time it sums
    "geometry.load_s": "geometry.load",
    "geometry.reject_s": "geometry.reject",
    "geometry.reflex_s": "geometry.reflex",
    "complexity.solve_s": "complexity.solve",
    "reeb.sweep_s": "reeb.sweep",
    "cli.emit_s": "cli.emit",
    "oracle.brute_force_s": "oracle.brute_force",
}
COUNTS = ("geometry.load.vertices", "geometry.load.calls", "complexity.events",
          "complexity.degenerate", "complexity.witness_bits", "reeb.nodes",
          "oracle.intervals", "cli.emit_bytes")
# Layer times that every workload produces. geometry.reject_s,
# oracle.brute_force_s, generators.lower_bound_s and oracle.us_per_interval
# exist on one workload only, so they are in the report but not the JSON.
PER_LAYER = {
    "geometry.load_s": "s", "geometry.reflex_s": "s", "complexity.solve_s": "s",
    "reeb.sweep_s": "s", "cli.emit_s": "s", "bench.inputs_s": "s",
    "bench.uncovered_s": "s", "trace.overhead_s": "s",
    "geometry.load_us_per_vertex": "us/vertex",
    **{name: "count" for name in COUNTS},
}
UNITS = {**END_TO_END, **PER_LAYER, **{name: "s" for name in LAYER_SPANS},
         "generators.lower_bound_s": "s", "traced_wall_s": "s",
         "oracle.us_per_interval": "us/interval", "ops": "count", "ops_failed": "count"}

DESIGN = {  # which layers the traced run must show dominating each workload
    "files": (("geometry.load_s",), "load_polygon"),
    "big-star": (("complexity.solve_s", "reeb.sweep_s", "cli.emit_s"), "solve + sweep + emit"),
    "small-oracle": (("oracle.brute_force_s",), "the brute-force oracle"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it (nearest rank)."""
    s = sorted(samples)
    best = None
    for p in ("90", "99", "99.9"):
        rank = math.ceil(float(p) / 100 * len(s))
        if len(s) - rank >= 10:
            best = (f"p{p}", s[rank - 1])
    return best


class Run:
    """One workload in this process: setup, warm-up and timed passes."""

    def __init__(self, workload: str, seed: int):
        import workloads  # imports ruledpoly, so only once SRC is on sys.path

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.failures: list[dict] = []
        self.attempted = 0
        self.passes = 0

    def setup(self, traced: bool) -> dict:
        """Set up SETUP_REPEATS times, each from a fresh interpreter's imports."""
        totals, inputs_s, generators_s = [], [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import ruledpoly"], check=True, timeout=120,
                           cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)})
            tr = Tracer() if traced else NullTracer()
            self.jobs, warmup = self.w.make_jobs(self.workload, self.seed, tr)
            self.run_jobs(warmup, [NullTracer()], record=False)
            totals.append(time.perf_counter() - t0)
            if traced:
                own = tr.self_times()
                inputs_s.append(own["bench.inputs"])
                generators_s.append(own.get("generators.lower_bound", 0.0))
        out = {"setup_s": statistics.median(totals)}
        if traced:
            out["bench.inputs_s"] = statistics.median(inputs_s)
            out["generators.lower_bound_s"] = statistics.median(generators_s)
        return out

    def run_jobs(self, jobs, tracers: list, record: bool = True) -> list[float]:
        """Run jobs back to back, each once under every tracer; return the wall per tracer.

        With two tracers the order flips from job to job, so neither side
        always runs first. The checks and the gc.collect() between jobs
        are not timed. After a command raises, the rest of its case is
        skipped.
        """
        walls = [0.0] * len(tracers)
        outputs: dict[str, dict] = defaultdict(dict)
        broken: set[str] = set()
        for job_id, (case, kind) in enumerate(jobs):
            for i in range(len(tracers)) if job_id % 2 == 0 else reversed(range(len(tracers))):
                if case.name in broken:
                    break
                tr = tracers[i]
                gc.collect()
                tr.job = job_id
                t0 = time.perf_counter()
                with tr.span("job"):
                    source = self.w.job_source(tr, case)
                    t1 = time.perf_counter()
                    with tr.span(f"cmd.{kind}"):
                        try:
                            text = self.w.COMMANDS[kind](tr, source, outputs[case.name])
                            error = None
                        except Exception as exc:  # any exception is a failed op; the run goes on
                            error = f"{type(exc).__name__}: {exc}"
                    t2 = time.perf_counter()
                walls[i] += t2 - t0
                if error:
                    broken.add(case.name)
                if record:
                    self.attempted += 1
                if error:
                    if record:
                        self.fail(case, kind, error)
                    continue
                outputs[case.name][kind] = text
                if not record:
                    continue
                if not tr.on:
                    self.samples[kind].append(t2 - t1)
                bad = self.w.check(case, kind, outputs[case.name])
                if bad:
                    self.fail(case, kind, "; ".join(bad))
        if record:
            self.passes += 1
        return walls

    def fail(self, case, kind: str, error: str) -> None:
        self.failures.append({"pass": self.passes, "case": case.name, "family": case.family,
                              "command": kind, "error": error})

    def measure(self, seconds: float, traced: bool) -> tuple[list, list, list]:
        """Whole passes while another fits.

        In a traced run every job runs twice in a row, untraced and
        traced, so both sides of trace.overhead_s see the same machine.
        """
        start = time.perf_counter()
        plain, traced_walls, tracers = [], [], []
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            if traced:
                tracers.append(Tracer())
                walls = self.run_jobs(self.jobs, [NullTracer(), tracers[-1]])
                plain.append(walls[0])
                traced_walls.append(walls[1])
            else:
                plain += self.run_jobs(self.jobs, [NullTracer()])
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + FIT_MARGIN * longest > seconds:
                return plain, traced_walls, tracers

    def end_to_end(self, plain: list[float]) -> tuple[dict, dict]:
        values = {"wall_s": statistics.median(plain)}
        counts = {"wall_s": len(plain)}
        for kind, samples in sorted(self.samples.items()):
            values[f"{kind}_s.p50"] = statistics.median(samples)
            counts[f"{kind}_s.p50"] = len(samples)
            tail = tail_percentile(samples)
            if tail:
                values[f"{kind}_s.{tail[0]}"] = tail[1]
                counts[f"{kind}_s.{tail[0]}"] = len(samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return values, counts


def per_layer(plain: list[float], walls: list[float], tracers: list) -> dict:
    """Medians over the traced passes; counts from the first (they repeat exactly)."""
    layers: dict[str, list[float]] = defaultdict(list)
    for tr in tracers:
        own = tr.self_times()
        for metric, span in LAYER_SPANS.items():
            layers[metric].append(own.get(span, 0.0))
        layers["bench.uncovered_s"].append(
            sum(t for name, t in own.items() if name == "job" or name.startswith("cmd.")))
    out = {metric: statistics.median(v) for metric, v in layers.items()}
    out["traced_wall_s"] = statistics.median(walls)
    out["trace.overhead_s"] = out["traced_wall_s"] - statistics.median(plain)
    counts = tracers[0].counts
    out.update({name: counts.get(name, 0) for name in COUNTS})
    vertices = counts.get("geometry.load.vertices", 0)
    out["geometry.load_us_per_vertex"] = 1e6 * out["geometry.load_s"] / vertices if vertices else 0.0
    intervals = counts.get("oracle.intervals", 0)
    out["oracle.us_per_interval"] = (
        1e6 * out["oracle.brute_force_s"] / intervals if intervals else 0.0)
    return out


def report(head: str, metrics: dict, sample_counts: dict, notes: list[str]) -> str:
    lines = [head]
    for name, value in metrics.items():
        unit = UNITS.get(name, "s")  # the remaining names are latency percentiles
        n = f"  (n={sample_counts[name]})" if name in sample_counts else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:30s} {shown:>14s} {unit}{n}")
    return "\n".join(lines + notes)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    t_start = time.perf_counter()
    run = Run(args.workload, args.seed)
    setup = run.setup(traced=bool(args.trace))
    plain, walls, tracers = run.measure(args.seconds, traced=bool(args.trace))
    notes: list[str] = []
    if args.trace:
        metrics = per_layer(plain, walls, tracers)
        sample_counts = {"traced_wall_s": len(walls)}
        keys, what = DESIGN[args.workload]
        share = sum(metrics[k] for k in keys) / metrics["traced_wall_s"]
        notes.append(f"  design check: {what} takes {100 * share:.1f}% of the traced wall time "
                     f"({'a majority' if share > 0.5 else 'NOT a majority'})")
        notes.append(f"  time no layer span covers: {metrics['bench.uncovered_s']:.4f} s per pass")
    else:
        metrics, sample_counts = run.end_to_end(plain)
    metrics.update(setup)
    sample_counts["setup_s"] = SETUP_REPEATS
    metrics["ops"] = run.attempted
    metrics["ops_failed"] = len(run.failures)
    notes.append(f"  {len(run.failures)} failed ops")
    notes += [f"    pass {f['pass']} {f['case']} ({f['family']}) {f['command']}: {f['error']}"
              for f in run.failures]
    head = (f"ruledpoly benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
            f"passes={run.passes} run={time.perf_counter() - t_start:.1f}s")
    text = report(head, metrics, sample_counts, notes)
    print(text, file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.txt").write_text(text + "\n")
    full = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
            "samples": sample_counts, "failures": run.failures,
            "untraced_pass_wall_s": plain, "traced_pass_wall_s": walls}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracers:
        spans = [{"pass": i, "spans": tr.spans} for i, tr in enumerate(tracers)]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}:{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "ruledpoly" / "__init__.py").is_file():
        print(f"error: {SRC / 'ruledpoly'} not found; run from a ruledpoly checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
