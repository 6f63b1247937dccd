#!/usr/bin/env python
"""A/B a perfbench workload: a git ref against the working tree.

Usage (from the repository root)::

    python scripts/perf_ab.py --base REF --workload W --pairs N \\
        --seconds S --seed K [--trace 0|1]

Extracts *REF* with ``git archive`` into a temporary directory, then
runs ``perfbench/run.py --workload W --seconds S --seed K --trace T``
*N* times in each tree, alternating between them (the first run of each
pair switches sides, so neither tree always runs on the warmer
machine). Each run's last stdout line is perfbench's result JSON.

For every metric both sides report, it prints the base and working-tree
medians, the relative median gap, the base runs' interquartile range
(IQR), how many pairs the working tree won (better in the direction
``BENCHMARK.json`` declares) and whether the median gap exceeds the
base IQR. The last line is the same summary as JSON, with both sides'
quartiles and every run's value added. ``correct`` holds only when every run said
``correct: true`` with 0 failed.

Uncommitted changes count: the working tree is run as it is on disk.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_result(stdout: str) -> dict:
    """The result record: perfbench's last non-empty stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> ``"lower"`` or ``"higher"`` (the better side)."""
    return {
        m["name"]: m["better"]
        for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, linearly interpolated (NumPy's default)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(base: list[dict], head: list[dict], better: dict[str, str]) -> dict:
    """Compare paired result records; ``base[i]`` pairs with ``head[i]``.

    Only metrics that every record reports and ``better`` knows are
    compared. ``wins`` counts pairs where the head is strictly better;
    ``clears_iqr`` says whether the median gap, in the better direction,
    exceeds the base runs' IQR.
    """
    if len(base) != len(head) or not base:
        raise ValueError(f"need equal, non-zero run counts, got {len(base)} and {len(head)}")
    records = base + head
    names = [n for n in base[0].get("metrics", {})
             if n in better and all(n in r.get("metrics", {}) for r in records)]
    metrics = {}
    for name in names:
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        sign = -1.0 if better[name] == "lower" else 1.0
        b_med, h_med = statistics.median(b), statistics.median(h)
        q1, q3 = quartiles(b)
        gain = sign * (h_med - b_med)
        metrics[name] = {
            "better": better[name],
            "base_median": b_med,
            "head_median": h_med,
            "base_quartiles": [q1, q3],
            "head_quartiles": list(quartiles(h)),
            "base_runs": b,
            "head_runs": h,
            "change": (h_med - b_med) / b_med if b_med else None,
            "base_iqr": q3 - q1,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(b, h)),
            "clears_iqr": gain > q3 - q1,
        }
    return {
        "pairs": len(base),
        "correct": all(r.get("correct") is True and r.get("failed") == 0 for r in records),
        "metrics": metrics,
    }


def format_summary(summary: dict) -> str:
    """The summary as an aligned text table."""
    rows = [f"{'metric':34s} {'base':>11s} {'head':>11s} {'change':>8s} "
            f"{'base IQR':>10s} {'wins':>6s}  beyond IQR"]
    for name, m in summary["metrics"].items():
        change = "n/a" if m["change"] is None else f"{100 * m['change']:+.1f}%"
        rows.append(
            f"{name:34s} {m['base_median']:11.5g} {m['head_median']:11.5g} "
            f"{change:>8s} {m['base_iqr']:10.3g} "
            f"{m['wins']:>3d}/{summary['pairs']:<2d}  {'yes' if m['clears_iqr'] else 'no'}"
        )
    rows.append(f"correct: {summary['correct']}")
    return "\n".join(rows)


def extract(ref: str, dest: pathlib.Path) -> None:
    """Write the tree of git *ref* into *dest*."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: pathlib.Path, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seconds", str(args.seconds), "--seed", str(args.seed),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/perf_ab.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="perf-ab-"))
    try:
        extract(args.base, tmp)
        base, head = [], []
        for i in range(args.pairs):
            order = [(tmp, base), (ROOT, head)]
            for tree, runs in order if i % 2 == 0 else order[::-1]:
                runs.append(run_once(tree, args))
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(base, head, better)
    summary.update(base_ref=args.base, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    print(format_summary(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
