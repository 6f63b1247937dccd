#!/usr/bin/env python
"""CI perf-regression gate: fresh measurement vs the committed baseline.

Re-runs the ``benchmarks/bench_perf.py`` measurement and fails (exit 1)
if any tracked rate regresses more than ``MAX_REGRESSION`` against
``benchmarks/results/BENCH_engine.json``, or if any machine-independent
bound fails (speedup floors, the counters-probe overhead ceiling). Both
come from the bench's section registry (``bench_perf.SECTIONS``): each
section declares its tracked rates and its bounds, so this script names
no section itself. A failing attempt is retried (up to ``ATTEMPTS``
total) to absorb runner noise: one quiet pass is proof the code can
still reach the rate.

Run from the repository root: ``python scripts/perf_gate.py``.
Refresh the baseline after intentional perf changes with
``PYTHONPATH=src python -m pytest benchmarks/bench_perf.py -s``.

Absolute rates are hardware-dependent, so they are only compared when
the committed baseline comes from the same machine class as the gate
run (the baseline records whether it was measured under CI; see
``environment.ci`` in the JSON). Against a foreign-class baseline the
gate still enforces the machine-independent bounds — both sides of
each ratio slow down together on a slower runner — and prints a notice to
refresh the baseline from the gating machine class (re-run the
benchmark on a CI runner and commit the JSON), which arms the absolute
checks. ``PERF_GATE_MAX_REGRESSION`` (default 0.30) widens the absolute
tolerance for noisier environments without editing this file.

Every run — pass or fail — prints a one-line digest of the tracked-rate
deltas and writes the per-rate detail to ``perf-gate-summary.txt``
(path overridable via ``PERF_GATE_SUMMARY``), which CI uploads as an
artifact with ``if: always()``.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_perf import bound_failures, measure, tracked_rates  # noqa: E402

BASELINE = ROOT / "benchmarks" / "results" / "BENCH_engine.json"
#: a rate may drop to this fraction below the committed baseline before
#: we fail (overridable per environment, see module docstring).
MAX_REGRESSION = float(os.environ.get("PERF_GATE_MAX_REGRESSION", "0.30"))
ATTEMPTS = 3
#: per-rate delta report, written on success *and* failure so CI can
#: always upload it as an artifact.
SUMMARY = pathlib.Path(os.environ.get("PERF_GATE_SUMMARY", "perf-gate-summary.txt"))


def same_machine_class(baseline: dict, fresh: dict) -> bool:
    """Whether absolute rates are comparable (dev box vs CI runner)."""
    return baseline.get("environment", {}).get("ci") == fresh.get(
        "environment", {}
    ).get("ci")


def check(baseline: dict, fresh: dict) -> list[str]:
    """Failure descriptions (empty = the attempt passes the gate)."""
    failures = []
    if same_machine_class(baseline, fresh):
        base_rates = tracked_rates(baseline)
        fresh_rates = tracked_rates(fresh)
        floor = 1.0 - MAX_REGRESSION
        for name, base in base_rates.items():
            got = fresh_rates.get(name)
            if got is None:
                failures.append(f"{name}: missing from fresh measurement")
            elif got < floor * base:
                failures.append(
                    f"{name}: {got:.1f} < {floor:.0%} of baseline {base:.1f}"
                )
    else:
        print(
            "perf-gate: baseline was measured on a different machine class "
            "(environment.ci mismatch) — gating the machine-independent "
            "bounds only. Refresh benchmarks/results/BENCH_engine.json from "
            "this machine class to arm the absolute-rate checks."
        )
    return failures + bound_failures(fresh)


def delta_summary(baseline: dict, fresh: dict) -> tuple[str, list[str]]:
    """(one-line digest, per-rate detail lines) of fresh vs baseline.

    Computed even across machine classes — there the deltas are
    informational (the gate does not enforce absolutes), and the digest
    says so rather than silently printing nothing.
    """
    base_rates = tracked_rates(baseline)
    fresh_rates = tracked_rates(fresh)
    deltas = {
        name: fresh_rates[name] / rate - 1.0
        for name, rate in base_rates.items()
        if name in fresh_rates and rate > 0
    }
    if not deltas:
        return "perf-gate deltas: no tracked rates shared with the baseline", []
    ordered = sorted(deltas, key=lambda name: deltas[name])
    detail = [
        f"{name}: {fresh_rates[name]:.1f} vs baseline {base_rates[name]:.1f} "
        f"({deltas[name]:+.1%})"
        for name in ordered
    ]
    median = sorted(deltas.values())[len(deltas) // 2]
    worst, best = ordered[0], ordered[-1]
    suffix = (
        "" if same_machine_class(baseline, fresh)
        else "; foreign machine class — informational only"
    )
    digest = (
        f"perf-gate deltas vs baseline ({len(deltas)} rates): "
        f"worst {deltas[worst]:+.1%} ({worst}), median {median:+.1%}, "
        f"best {deltas[best]:+.1%} ({best}){suffix}"
    )
    return digest, detail


def write_summary(status: str, digest: str, detail: list[str],
                  failures: list[str]) -> None:
    lines = [f"perf-gate: {status}", digest]
    if failures:
        lines += ["", "failures:"] + [f"  {f}" for f in failures]
    if detail:
        lines += ["", "tracked rates (worst delta first):"]
        lines += [f"  {line}" for line in detail]
    SUMMARY.write_text("\n".join(lines) + "\n")


def main() -> int:
    if not BASELINE.exists():
        print(f"perf-gate: no baseline at {BASELINE}", file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE.read_text())
    fresh: dict = {}
    last_failures: list[str] = []
    for attempt in range(1, ATTEMPTS + 1):
        print(f"perf-gate: measurement attempt {attempt}/{ATTEMPTS} ...")
        fresh = measure()
        last_failures = check(baseline, fresh)
        if not last_failures:
            digest, detail = delta_summary(baseline, fresh)
            print("perf-gate: OK")
            print(digest)
            for line in detail:
                print(f"  {line}")
            write_summary("OK", digest, detail, [])
            return 0
        print(f"perf-gate: attempt {attempt} failed:")
        for failure in last_failures:
            print(f"  {failure}")
    digest, detail = delta_summary(baseline, fresh)
    print(digest)
    write_summary("FAILED", digest, detail, last_failures)
    print(
        f"perf-gate: FAILED after {ATTEMPTS} attempts — a tracked rate "
        f"regressed >{MAX_REGRESSION:.0%} against {BASELINE}",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
