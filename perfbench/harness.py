"""Benchmark driver: set up, time passes, check outputs, report.

``--trace 0`` measures the end-to-end metrics: set-up is repeated and
its median reported as ``setup_s``; then timed passes repeat until
``--seconds`` have elapsed, and the fastest pass gives ``wall_s`` (and
``specs_per_s`` / ``rounds_per_s``, the same measurement in other
units). ``--trace 1`` instead alternates an untraced pass with a traced
one and reports per-layer metrics (medians over the traced passes),
writing the last traced pass as a Chrome trace.

The last line of standard output is always one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

from perfbench import checks, layers, tracing

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes lives under here (git-ignored).
OUT_DIR = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_PASSES = 3

#: end-to-end metrics and their units (``error_rate`` is reported as
#: ``failed / attempted`` in the result line instead: it is 0 on a
#: correct run).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "specs_per_s": "specs/s",
    "rounds_per_s": "rounds/s",
    "peak_rss_mb": "MB",
}


def _import_seconds() -> float:
    """Cold import of the library in a fresh interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.runner, repro.workloads"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child (pool workers)."""
    own = _hwm_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(_hwm_kb(str(p.pid)) for p in multiprocessing.active_children())
    return (own + children) / 1024.0


def _timed_setup(workload, seed: int, workdir: pathlib.Path):
    """Set up SETUP_REPS times; keep the last context, report the median."""
    times, ctx = [], None
    for _ in range(SETUP_REPS):
        if ctx is not None:
            workload.close(ctx)
        rep_dir = workdir / f"setup{len(times)}"
        rep_dir.mkdir(parents=True)
        imports = _import_seconds()
        t0 = time.perf_counter()
        ctx = workload.setup(seed, rep_dir)
        times.append(imports + time.perf_counter() - t0)
    return ctx, statistics.median(times)


class Tally:
    """Outcomes attempted and failed, checked against the reference."""

    def __init__(self, ctx, frozen):
        self.ctx = ctx
        self.attempted = ctx.setup_attempted
        self.failed = ctx.setup_failed
        if ctx.reference is None:
            ctx.reference = frozen

    def check(self, done) -> None:
        ref = self.ctx.reference
        if ref is None:
            ref = self.ctx.reference = list(done.digests)
        reps = len(done.digests) // len(ref)
        self.attempted += len(done.digests)
        self.failed += checks.count_mismatches(done.digests, list(ref) * reps)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _run_untraced(workload, ctx, tally, seconds: float) -> dict:
    for _ in range(workload.warmup_passes):
        workload.run_pass(ctx)
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        # Every pass starts from a collected heap, as a fresh CLI run does.
        gc.collect()
        done = workload.run_pass(ctx)
        tally.check(done)
        walls.append(done.wall_s)
    # Contention from other tenants of the host only ever adds time, and
    # it comes in spells of seconds to tens of seconds, so the fastest
    # pass tracks the program's own cost far more steadily than the
    # median does (the reasoning of ``timeit``). Spec and round counts
    # are the same on every pass.
    wall = min(walls)
    return {
        "wall_s": wall,
        "specs_per_s": done.specs / wall,
        "rounds_per_s": done.rounds / wall,
        "peak_rss_mb": peak_rss_mb(),
        "_passes": walls,
    }


def _run_traced(workload, ctx, tally, seconds: float, trace_path) -> dict:
    from repro.runner.spec import RunSpec

    for _ in range(workload.warmup_passes):
        workload.run_pass(ctx)
    spec_ids = tracing.spec_id_map(
        [RunSpec.from_dict(d) for d in workload.traced_spec_dicts(ctx)]
    )
    rows, tracer = [], None
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        gc.collect()
        plain = workload.run_pass(ctx)
        tally.check(plain)
        tracer = tracing.Tracer(spec_ids)
        gc.collect()
        traced = workload.traced_pass(ctx, tracer)
        tally.check(traced)
        rows.append(layers.layer_metrics(tracer, traced, plain))
    tracer.write_chrome_trace(trace_path, {"workload": workload.name})
    print(layers.format_breakdown(tracer, rows[-1]["bench.traced_wall_s"]))
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="write this seed's per-spec digests (serial "
                             "reference path) into perfbench/reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.freeze:
        from perfbench.workloads import reference_digests

        digests = reference_digests(workload, args.seed)
        checks.save_reference(workload.name, args.seed, digests)
        print(f"froze {len(digests)} digests for {workload.name} "
              f"seed {args.seed}: {checks.grid_digest(digests)}")
        return 0

    from repro.runner.pool import resolve_workers

    workdir = OUT_DIR / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ctx, setup_s = _timed_setup(workload, args.seed, workdir)
        try:
            tally = Tally(ctx, checks.load_reference(workload.name, args.seed))
            if args.trace:
                trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
                values = _run_traced(workload, ctx, tally, args.seconds, trace_path)
                units = layers.PER_LAYER_UNITS
            else:
                values = _run_untraced(workload, ctx, tally, args.seconds)
                values["setup_s"] = setup_s
                units = END_TO_END_UNITS
        finally:
            workload.close(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = checks.fingerprint(ROOT, resolve_workers(0))
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "passes": values.pop("_passes", None),
        "error_rate": tally.failed / max(tally.attempted, 1),
    }
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':40s} {record['error_rate']:.6g} fraction")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
