"""Tests for the benchmark itself: tracing, names, output checks, errors.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import json
import pathlib
import re
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import repro.runner.runner as runner_mod  # noqa: E402
from repro.runner.backends import SerialBackend  # noqa: E402
from repro.runner.spec import RunSpec  # noqa: E402

from perfbench import checks, harness, layers, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TinyGrid(workloads._ColdGrid):
    """A seconds-scale stand-in for grid-cold, serial and batched."""

    name = "tiny"
    batch_replicates = 2

    def spec_dicts(self, seed):
        return [
            RunSpec(scenario="mesh-hotspot", algorithm=alg, seed=seed + rep,
                    max_rounds=5, scenario_kwargs={"side": 4},
                    engine=engine).to_dict()
            for alg in ("pplb", "diffusion")
            for engine in ("rounds-fast", "events-fast")
            for rep in range(2)
        ]

    def setup(self, seed, workdir):
        return workloads.Context(spec_dicts=self.spec_dicts(seed),
                                 workdir=workdir, backend=SerialBackend())


def _snapshot():
    return [
        (owner, attr, original) for owner, attr, original in tracing.bindings()
    ]


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrapped_callables_are_restored_after_traced_run(tmp_path):
    before = _snapshot()
    assert len(before) >= len(tracing.TARGETS)
    work = TinyGrid()
    ctx = work.setup(0, tmp_path)
    plain = work.run_pass(ctx)
    tracer = tracing.Tracer(tracing.spec_id_map(
        [RunSpec.from_dict(d) for d in ctx.spec_dicts]
    ))
    traced = work.traced_pass(ctx, tracer)
    for owner, attr, original in before:
        assert _current(owner, attr) is original, (owner, attr)
    # The traced pass saw the layers and reproduced the untraced results.
    spans = tracer.layers()
    for name in ("runner.run_grid", "runner.worker.execute",
                 "workloads.build_scenario", "sim.batch.run", "sim.events.run",
                 "core.balancer.step", "baselines.diffusion.step"):
        assert spans[name]["calls"] > 0, name
    assert traced.digests == plain.digests
    metrics = layers.layer_metrics(tracer, traced, plain)
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert abs(metrics["bench.self_time_residual"]) < 0.05
    trace = tracer.chrome_trace()
    assert len(trace["traceEvents"]) == len(tracer)
    assert all("parent" in e["args"] for e in trace["traceEvents"])


def test_wrappers_are_restored_when_the_block_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert _current(*before[0][:2]) is not before[0][2]
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert _current(owner, attr) is original, (owner, attr)


def test_metric_and_workload_names_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(layers.PER_LAYER_UNITS) + list(workloads.WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.PER_LAYER_UNITS


def test_digest_check_flags_a_perturbed_metric():
    metrics = {name: 1.5 for name in checks.METRIC_FIELDS}
    reference = [checks.spec_digest(metrics)] * 3
    perturbed = dict(metrics, heat=float(np.nextafter(1.5, 2.0)))
    got = [reference[0], checks.spec_digest(perturbed), reference[0]]
    assert checks.count_mismatches(got, reference) == 1
    assert checks.count_mismatches(reference, reference) == 0


def test_raising_spec_counts_as_failed_without_aborting(tmp_path, monkeypatch):
    original = runner_mod.execute_payload

    def flaky(spec_dict):
        if spec_dict["algorithm"] == "diffusion" and spec_dict["seed"] == 1:
            raise RuntimeError("injected failure")
        return original(spec_dict)

    monkeypatch.setattr(runner_mod, "execute_payload", flaky)
    work = TinyGrid()
    ctx = work.setup(0, tmp_path)
    tally = harness.Tally(ctx, frozen=None)
    values = harness._run_untraced(work, ctx, tally, seconds=0.0)
    passes = len(values["_passes"])
    assert passes == harness.MIN_PASSES
    # Only the events-fast diffusion spec with seed 1 runs solo through
    # execute_payload; it fails once per pass, everything else lands.
    assert tally.attempted == passes * len(ctx.spec_dicts)
    assert tally.failed == passes
    assert not tally.correct
    assert values["specs_per_s"] > 0
