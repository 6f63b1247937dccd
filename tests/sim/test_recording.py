"""Unit and parity tests for the columnar round log and recorders.

The recorder contract: ``full`` reproduces the eager record list
bit-for-bit; ``thin:k`` keeps every k-th round plus the last while its
running totals stay exact; ``summary`` retains no per-round Python
objects at all yet answers the whole summary surface exactly. The
parity suites hold these properties across all four engines through
the shared kernel.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.baselines import FluidDiffusion
from repro.exceptions import ConfigurationError
from repro.runner.registry import make_balancer
from repro.sim import (
    EventFastSimulator,
    EventSimulator,
    FluidSimulator,
    FullRecorder,
    RoundLog,
    RoundRecord,
    SimulationResult,
    Simulator,
    SummaryRecorder,
    ThinningRecorder,
    make_recorder,
    recorder_tag,
)
from repro.workloads import build_scenario

SIZE = {"side": 5, "n_tasks": 100}


def rec(i, migrations=1, spread=10.0):
    return RoundRecord(
        round_index=i,
        n_migrations=migrations,
        traffic_work=float(migrations) * 1.5,
        heat=float(migrations) * 0.25,
        cov=spread / 10.0,
        spread=spread,
        max_load=spread,
        min_load=0.0,
        in_flight=i % 3,
        blocked=i % 2,
        n_tasks=100,
        asleep=0,
    )


class TestRoundLog:
    def test_append_and_materialise(self):
        log = RoundLog()
        records = [rec(i, migrations=i) for i in range(100)]  # forces growth
        for r in records:
            log.append_record(r)
        assert len(log) == 100
        assert log.records() == records
        assert log.record(-1) == records[-1]

    def test_columns_are_read_only_views(self):
        log = RoundLog.from_records([rec(0), rec(1)])
        col = log.column("spread")
        assert col.shape == (2,)
        with pytest.raises(ValueError):
            col[0] = 99.0

    def test_unknown_column_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown round field"):
            RoundLog().column("nope")

    def test_wire_roundtrip_is_exact_through_json(self):
        log = RoundLog.from_records(
            [rec(i, spread=0.1 + 0.2 * i) for i in range(7)]
        )
        cols = json.loads(json.dumps(log.to_columns()))
        clone = RoundLog.from_columns(cols)
        assert clone == log
        assert clone.records() == log.records()

    def test_nan_cells_compare_equal(self):
        nan_round = dataclasses.replace(rec(0), traffic_work=float("nan"))
        log = RoundLog.from_records([nan_round, rec(1)])
        assert log == RoundLog.from_records([nan_round, rec(1)])
        assert log != RoundLog.from_records([rec(0), rec(1)])
        result = SimulationResult(log=log)
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.log == log

    def test_ragged_columns_rejected(self):
        cols = RoundLog.from_records([rec(0), rec(1)]).to_columns()
        cols["spread"] = cols["spread"][:1]
        with pytest.raises(ConfigurationError, match="ragged"):
            RoundLog.from_columns(cols)

    def test_missing_column_rejected(self):
        cols = RoundLog.from_records([rec(0)]).to_columns()
        del cols["heat"]
        with pytest.raises(ConfigurationError, match="missing"):
            RoundLog.from_columns(cols)

    def test_nested_column_values_rejected(self):
        cols = {name: [[v] for v in values]
                for name, values in RoundLog.from_records([rec(0), rec(1)])
                .to_columns().items()}
        with pytest.raises(ConfigurationError, match="non-scalar"):
            RoundLog.from_columns(cols)


class TestMakeRecorder:
    def test_spec_strings(self):
        assert isinstance(make_recorder("full"), FullRecorder)
        assert isinstance(make_recorder("summary"), SummaryRecorder)
        thin = make_recorder("thin:7")
        assert isinstance(thin, ThinningRecorder) and thin.every == 7

    def test_instance_passthrough(self):
        recorder = SummaryRecorder()
        assert make_recorder(recorder) is recorder

    def test_tags_canonicalise(self):
        assert recorder_tag("thin:07") == "thin:7"
        assert recorder_tag("full") == "full"

    @pytest.mark.parametrize("bad", ["thin", "thin:", "thin:x", "thin:0",
                                     "eager", "THIN:3"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            make_recorder(bad)


def run_scenario(engine_cls, recorder, scenario="mesh-hotspot", seed=3,
                 rounds=60, algorithm="pplb"):
    scenario_obj = build_scenario(scenario, seed=seed, **SIZE)
    sim = engine_cls(
        scenario_obj.topology,
        scenario_obj.system,
        make_balancer(algorithm),
        links=scenario_obj.links,
        dynamic=scenario_obj.dynamic,
        node_speeds=scenario_obj.node_speeds,
        seed=seed,
        recorder=recorder,
    )
    return sim.run(max_rounds=rounds)


ENGINES = [Simulator, EventSimulator, EventFastSimulator]


class TestRecorderParity:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_summary_totals_match_full(self, engine_cls):
        full = run_scenario(engine_cls, "full")
        summary = run_scenario(engine_cls, "summary")
        assert len(summary.records) == 0  # no per-round history retained
        assert summary.aggregates is not None
        assert summary.n_rounds == full.n_rounds
        assert summary.total_migrations == full.total_migrations
        assert summary.total_traffic == pytest.approx(full.total_traffic)
        assert summary.total_heat == pytest.approx(full.total_heat)
        assert summary.converged_round == full.converged_round
        assert summary.initial_summary == full.initial_summary
        assert summary.final_summary == full.final_summary
        assert summary.aggregates["spread_min"] == pytest.approx(
            float(full.series("spread").min())
        )
        assert summary.aggregates["cov_mean"] == pytest.approx(
            float(full.series("cov").mean())
        )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_thinning_keeps_every_kth_and_last(self, engine_cls):
        full = run_scenario(engine_cls, "full")
        thin = run_scenario(engine_cls, "thin:10")
        full_records = list(full.records)
        kept = full_records[::10]
        if full_records[-1] != kept[-1]:
            kept.append(full_records[-1])
        assert list(thin.records) == kept
        # Totals are exact despite the thinned log.
        assert thin.n_rounds == full.n_rounds
        assert thin.total_migrations == full.total_migrations
        assert thin.total_traffic == pytest.approx(full.total_traffic)

    def test_thin_1_equals_full_history(self):
        full = run_scenario(Simulator, "full")
        thin = run_scenario(Simulator, "thin:1")
        assert list(thin.records) == list(full.records)
        assert thin.aggregates is not None  # still streams exact totals

    def test_recorder_never_perturbs_the_trajectory(self):
        # Recording is pure observation: the balancer's RNG stream and
        # decisions are identical whatever the recorder keeps.
        full = run_scenario(Simulator, "full", scenario="bursty-arrivals")
        summary = run_scenario(Simulator, "summary", scenario="bursty-arrivals")
        assert summary.final_summary == full.final_summary
        assert summary.total_migrations == full.total_migrations

    def test_recorder_instance_is_reusable_across_runs(self):
        recorder = SummaryRecorder()
        first = run_scenario(Simulator, recorder)
        second = run_scenario(Simulator, recorder)
        assert first.aggregates == second.aggregates  # restarted, not resumed

    def test_summary_result_roundtrips_through_wire_format(self):
        res = run_scenario(Simulator, "summary")
        clone = SimulationResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert clone == res
        assert clone.summary_row() == res.summary_row()

    def test_thin_result_roundtrips_through_wire_format(self):
        res = run_scenario(Simulator, "thin:10")
        clone = SimulationResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert clone == res
        assert list(clone.records) == list(res.records)


class TestFluidRecorderParity:
    def _run(self, recorder, rounds=200):
        topo = build_scenario("mesh-hotspot", seed=0, **SIZE).topology
        h = np.zeros(topo.n_nodes)
        h[0] = float(topo.n_nodes)
        sim = FluidSimulator(topo, h, FluidDiffusion("optimal"),
                             recorder=recorder)
        return sim.run(max_rounds=rounds)

    def test_summary_matches_full(self):
        full = self._run("full")
        summary = self._run("summary")
        assert len(summary.records) == 0
        assert summary.n_rounds == full.n_rounds
        assert summary.total_traffic == pytest.approx(full.total_traffic)
        assert summary.converged_round == full.converged_round
        assert summary.final_summary == full.final_summary

    def test_thinning_matches_full_subset(self):
        full = self._run("full")
        thin = self._run("thin:25")
        full_records = list(full.records)
        kept = full_records[::25]
        if full_records[-1] != kept[-1]:
            kept.append(full_records[-1])
        assert list(thin.records) == kept
