"""The perf gate derives its rates and bounds from the bench registry.

``scripts/perf_gate.py`` names no section itself: tracked rates and
machine-independent bounds come from ``bench_perf.SECTIONS``. These
tests pin that the committed baseline is still compared under the same
rate names, that it passes its own gate, and that every section's bound
is actually enforced.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = json.loads((ROOT / "benchmarks" / "results" / "BENCH_engine.json").read_text())

#: every rate name the committed baseline is gated under.
TRACKED = {
    *(f"{kind}_rps@N={n}" for kind in ("scalar", "fast") for n in (64, 256, 1024, 4096)),
    "record_full_rps@N=1024",
    "record_summary_rps@N=1024",
    "probe_null_rps@N=1024",
    "probe_counters_rps@N=1024",
    "grid_dispatch_rps",
    "grid_dispatch_baseline_rps",
    "batch_sps",
    "batch_solo_sps",
    "events_scalar_eps",
    "events_fast_eps",
    "events_steady_scalar_eps",
    "events_steady_fast_eps",
}


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "scripts" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_names_are_stable(gate):
    assert set(gate.tracked_rates(BASELINE)) == TRACKED


def test_baseline_passes_its_own_gate(gate):
    assert gate.check(BASELINE, BASELINE) == []


def test_sections_missing_from_an_old_baseline_are_skipped(gate):
    old = {k: v for k, v in BASELINE.items() if k not in ("grid_dispatch", "batch_throughput")}
    assert set(gate.tracked_rates(old)) == TRACKED - {
        "grid_dispatch_rps",
        "grid_dispatch_baseline_rps",
        "batch_sps",
        "batch_solo_sps",
    }


def test_rate_regression_fails(gate):
    fresh = copy.deepcopy(BASELINE)
    fresh["batch_throughput"]["batch_sps"] *= 0.5
    [failure] = gate.check(BASELINE, fresh)
    assert failure.startswith("batch_sps:")


def test_foreign_machine_class_gates_bounds_only(gate, capsys):
    fresh = copy.deepcopy(BASELINE)
    fresh["environment"] = {"ci": not BASELINE["environment"]["ci"]}
    fresh["batch_throughput"]["batch_sps"] *= 0.5
    assert gate.check(BASELINE, fresh) == []
    assert "different machine class" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, field, factor, label",
    [
        ("curve", "speedup", 0.1, "speedup@N="),
        # A faster full run (not a slower summary run, which would also
        # regress a tracked rate) drops the summary/full ratio.
        ("record_throughput", "full_rps", 2.0, "summary/full recording rate"),
        ("probe_overhead", "overhead", 2.0, "counters-probe overhead"),
        ("grid_dispatch", "speedup", 0.1, "grid-dispatch speedup"),
        ("batch_throughput", "speedup", 0.1, "replicate-batch speedup"),
        ("events_steady", "speedup", 0.1, "events_steady speedup"),
    ],
)
def test_every_bound_is_enforced(gate, section, field, factor, label):
    fresh = copy.deepcopy(BASELINE)
    for entry in fresh[section].get("points", [fresh[section]]):
        entry[field] *= factor
    failures = gate.check(BASELINE, fresh)
    assert failures and all(f.startswith(label) for f in failures), failures
