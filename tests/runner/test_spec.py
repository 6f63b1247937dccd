"""Unit tests for RunSpec identity, grid expansion and seed derivation."""

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.rng import seed_for
from repro.runner import RunSpec, expand_grid, grid_seeds


class TestRunSpec:
    def test_roundtrip(self):
        spec = RunSpec(
            scenario="mesh-hotspot",
            algorithm="pplb",
            seed=7,
            max_rounds=123,
            scenario_kwargs={"side": 4},
            algorithm_kwargs={"mu_k_base": 0.5},
            sim_kwargs={"transfer_latency": 2},
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_key_is_stable_and_content_addressed(self):
        a = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=1)
        b = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=1)
        assert a.key() == b.key()
        assert len(a.key()) == 64  # sha256 hex

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"algorithm": "diffusion"},
            {"scenario": "torus-hotspot"},
            {"max_rounds": 99},
            {"scenario_kwargs": {"side": 4}},
            {"algorithm_kwargs": {"beta0": 0.5}},
            {"sim_kwargs": {"link_capacity": 2}},
            {"engine": "events"},
            {"recorder": "summary"},
            {"recorder": "thin:5"},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        base = dict(scenario="mesh-hotspot", algorithm="pplb", seed=1)
        assert RunSpec(**base).key() != RunSpec(**{**base, **change}).key()

    def test_engine_defaults_to_rounds_and_roundtrips(self):
        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb")
        assert spec.engine == "rounds"
        # Pre-engine payloads (older caches/exports) rebuild as rounds.
        legacy = spec.to_dict()
        del legacy["engine"]
        assert RunSpec.from_dict(legacy).engine == "rounds"
        ev = RunSpec(scenario="mesh-hotspot", algorithm="pplb", engine="events")
        assert RunSpec.from_dict(ev.to_dict()) == ev

    def test_rejects_unknown_engine(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown engine 'warp'; available: \['events', 'fluid', 'rounds'\]",
        ):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb", engine="warp")

    @pytest.mark.parametrize("legacy, engine", [("rounds-fast", "rounds"),
                                                ("events-fast", "events")])
    def test_legacy_engine_spelling_is_the_base_engine(self, legacy, engine):
        base = dict(scenario="mesh-hotspot", algorithm="pplb", seed=1)
        old = RunSpec(**base, engine=legacy)
        assert old.engine == engine
        assert old.key() == RunSpec(**base, engine=engine).key()
        # A manifest stored under the legacy name rebuilds as the base.
        stored = {**old.to_dict(), "engine": legacy}
        assert RunSpec.from_dict(stored) == RunSpec(**base, engine=engine)

    def test_recorder_defaults_to_full_and_roundtrips(self):
        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb")
        assert spec.recorder == "full"
        thin = RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                       recorder="thin:10")
        assert RunSpec.from_dict(thin.to_dict()) == thin
        # The canonical spec string is normalised for key stability.
        padded = RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                         recorder="thin:010")
        assert padded.recorder == "thin:10"
        assert padded.key() == thin.key()

    def test_rejects_unknown_recorder(self):
        with pytest.raises(ConfigurationError, match="recorder"):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                    recorder="verbose")

    def test_summary_spec_executes_with_exact_totals(self):
        from repro.runner import execute_spec

        base = dict(scenario="mesh-hotspot", algorithm="diffusion", seed=6,
                    max_rounds=40, scenario_kwargs={"side": 5, "n_tasks": 75})
        full = execute_spec(RunSpec(**base, recorder="full"))
        summary = execute_spec(RunSpec(**base, recorder="summary"))
        assert len(summary.records) == 0
        assert summary.n_rounds == full.n_rounds
        assert summary.total_migrations == full.total_migrations
        assert summary.final_summary == full.final_summary

    def test_rounds_engine_matches_the_reference_sweep(self, monkeypatch):
        # The spec level of the equivalence anchor: the "rounds" engine
        # (plain PPLB, screened sweep) reproduces Simulator with PPLB
        # pinned to the reference Phase-B sweep exactly.
        from repro.runner import execute_spec
        from repro.sim import Simulator
        from tests.conftest import reference_balancer, run_on

        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=4,
                       max_rounds=40, scenario_kwargs={"side": 5, "n_tasks": 100})
        b = execute_spec(spec).to_dict()
        monkeypatch.setattr("repro.runner.worker.make_balancer",
                            reference_balancer)
        a = run_on(Simulator, spec).to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_events_engine_matches_the_heap_oracle(self, monkeypatch):
        # Same anchor for the async engine: "events" runs the columnar
        # driver (it counts buffer pops, not heap pops) and reproduces
        # the heap-driven oracle (reference sweep) exactly.
        from repro.runner import execute_spec
        from tests.conftest import reference_balancer, run_on
        from tests.heap_events import HeapEventSimulator

        spec = RunSpec(scenario="torus-hotspot", algorithm="pplb", seed=4,
                       max_rounds=40, scenario_kwargs={"side": 5, "n_tasks": 100},
                       sim_kwargs={"wake_jitter": 0.25}, engine="events")
        b = execute_spec(spec).to_dict()
        probed = execute_spec(dataclasses.replace(spec, probe="counters"))
        counters = probed.telemetry["counters"]
        assert "engine.buffer_pops" in counters
        assert "engine.heap_pops" not in counters
        monkeypatch.setattr("repro.runner.worker.make_balancer",
                            reference_balancer)
        a = run_on(HeapEventSimulator, spec).to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_key_covers_library_version(self, monkeypatch):
        # Cached results must not survive a code-version bump.
        spec = RunSpec(scenario="mesh-hotspot", algorithm="pplb", seed=1)
        before = spec.key()
        monkeypatch.setattr("repro.__version__", "0.0.0-test")
        assert spec.key() != before

    def test_kwarg_order_is_canonicalized(self):
        a = RunSpec("mesh-hotspot", "pplb", scenario_kwargs={"side": 4, "n_tasks": 32})
        b = RunSpec("mesh-hotspot", "pplb", scenario_kwargs={"n_tasks": 32, "side": 4})
        assert a.key() == b.key()

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            RunSpec(scenario="nope", algorithm="pplb")
        with pytest.raises(ConfigurationError):
            RunSpec(scenario="mesh-hotspot", algorithm="nope")
        with pytest.raises(ConfigurationError):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb", max_rounds=0)

    def test_rejects_typoed_scenario_kwargs(self):
        # Builders silently ignore unknown kwargs, so the spec layer
        # must catch typos ('n_task') before they poison the cache.
        with pytest.raises(ConfigurationError, match="n_task"):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                    scenario_kwargs={"n_task": 64})
        # Sharing another scenario's size kwarg across a grid is fine.
        RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                scenario_kwargs={"dim": 4, "side": 8})


class TestComposedScenarios:
    def test_composed_string_canonicalizes_in_the_spec(self):
        spec = RunSpec(scenario="stragglers:frac=0.1+mesh:16x16+hotspot",
                       algorithm="pplb")
        assert spec.scenario == "mesh:side=16+hotspot+stragglers:frac=0.1"

    def test_equivalent_spellings_share_a_cache_key(self):
        a = RunSpec(scenario="mesh:16x16+hotspot+diurnal", algorithm="pplb")
        b = RunSpec(scenario="diurnal+hotspot+mesh:side=16", algorithm="pplb")
        assert a.key() == b.key()

    def test_composed_spec_roundtrips(self):
        spec = RunSpec(
            scenario="torus:6+clustered+fault-storm:frac=0.2+tiered",
            algorithm="diffusion", seed=3, engine="events",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_composed_spec_roundtrips_through_the_result_cache(self, tmp_path):
        from repro.runner import ResultCache, run_grid

        spec = RunSpec(scenario="mesh:5+power-law+replay:horizon=20",
                       algorithm="diffusion", seed=2, max_rounds=10)
        cache = ResultCache(tmp_path / "cache")
        first = run_grid([spec], cache=cache)[0]
        again = run_grid([spec], cache=cache)[0]
        assert not first.cached and again.cached
        a, b = first.result.to_dict(), again.result.to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_composed_kwargs_validate_per_component(self):
        with pytest.raises(ConfigurationError, match="accepted per component"):
            RunSpec(scenario="mesh:4+uniform", algorithm="pplb",
                    scenario_kwargs={"n_task": 64})
        # Routed overrides are fine (side -> topology, n_tasks -> placement).
        RunSpec(scenario="mesh:4+uniform", algorithm="pplb",
                scenario_kwargs={"side": 8, "n_tasks": 64})

    def test_unparsable_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(scenario="mesh:4+warp-drive", algorithm="pplb")


class TestFluidEngine:
    def test_fluid_requires_fluid_algorithm(self):
        with pytest.raises(ConfigurationError, match="divisible-load"):
            RunSpec(scenario="mesh-hotspot", algorithm="pplb", engine="fluid")

    def test_fluid_algorithms_rejected_on_task_engines(self):
        with pytest.raises(ConfigurationError, match="engine='fluid'"):
            RunSpec(scenario="mesh-hotspot", algorithm="fluid-diffusion")

    def test_fluid_spec_executes_and_hashes_distinctly(self):
        from repro.runner import execute_spec

        spec = RunSpec(scenario="mesh-hotspot", algorithm="fluid-diffusion",
                       engine="fluid", max_rounds=30,
                       scenario_kwargs={"side": 5})
        other = RunSpec(scenario="mesh-hotspot", algorithm="fluid-sos",
                        engine="fluid", max_rounds=30,
                        scenario_kwargs={"side": 5})
        assert spec.key() != other.key()
        result = execute_spec(spec)
        assert result.n_rounds >= 1
        # Diffusion on a hotspot strictly reduces imbalance.
        assert result.final_cov < result.records[0].cov


class TestGrid:
    def test_expand_grid_order_and_size(self):
        specs = expand_grid(
            ["mesh-hotspot", "torus-hotspot"], ["pplb", "diffusion"], [1, 2]
        )
        assert len(specs) == 8
        # scenario-major, then algorithm, then seed
        assert [ (s.scenario, s.algorithm, s.seed) for s in specs[:3] ] == [
            ("mesh-hotspot", "pplb", 1),
            ("mesh-hotspot", "pplb", 2),
            ("mesh-hotspot", "diffusion", 1),
        ]

    def test_expand_grid_rejects_empty_axes(self):
        with pytest.raises(ConfigurationError):
            expand_grid([], ["pplb"], [0])
        with pytest.raises(ConfigurationError):
            expand_grid(["mesh-hotspot"], ["pplb"], [])

    def test_grid_seeds_match_sweep_discipline(self):
        # Seeds derive through seed_for: extending never perturbs.
        assert grid_seeds(3) == [seed_for(0, i) for i in range(3)]
        assert grid_seeds(5)[:3] == grid_seeds(3)

    def test_grid_seeds_depend_on_base(self):
        assert grid_seeds(3, base_seed=0) != grid_seeds(3, base_seed=1)
        with pytest.raises(ConfigurationError):
            grid_seeds(0)
