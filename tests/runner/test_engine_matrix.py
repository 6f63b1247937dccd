"""End-to-end smoke matrix: every registered scenario × every engine.

Each cell builds the scenario, runs 5 rounds under the ``summary``
recorder and checks the result shape — so every component (placements,
links, heterogeneity, dynamics) is exercised through the full
spec → worker → engine → recorder stack on all three execution models.
Every engine's cells also run replicate-batched, the event cells also on
the heap-driven oracle, and each of those runs must reproduce its solo,
runner-built counterpart exactly. Sizes are overridden down through the legacy
shared-kwargs path to keep the matrix cheap.
"""

import dataclasses
import functools

import pytest

from repro.runner import ENGINES, ResultCache, RunSpec, execute_spec, run_grid
from repro.runner.worker import execute_batch
from repro.sim import EventSimulator
from repro.workloads import SCENARIOS
from tests.conftest import run_on

def small_kwargs(scenario: str) -> dict:
    """Tiny-machine overrides per scenario.

    Legacy names tolerate the whole shared set; post-composition names
    are strict, so only keys they accept may appear. The fixed-machine
    fixtures (torus-32x32, mesh-4096) only shrink their task count
    (they ignore `side`, as they always did).
    """
    if scenario == "hypercube-hotspot":
        return {"dim": 3, "n_tasks": 32}
    return {"side": 4, "n_tasks": 32}

def _first_lane(spec):
    """*spec* run as the first lane of a two-replicate batch."""
    return execute_batch([spec, dataclasses.replace(spec, seed=spec.seed + 1)])[0]


#: every way a cell runs: (engine name, runner). Each engine through the
#: runner and replicate-batched, and the heap-driven event oracle by
#: class (no engine name builds it). A run whose runner is not
#: ``execute_spec`` must equal the ``execute_spec`` result of the same
#: spec.
RUNS = {
    "rounds": ("rounds", execute_spec),
    "rounds-batched": ("rounds", _first_lane),
    "events": ("events", execute_spec),
    "events-batched": ("events", _first_lane),
    "EventSimulator": ("events", functools.partial(run_on, EventSimulator)),
    "fluid": ("fluid", execute_spec),
    "fluid-batched": ("fluid", _first_lane),
}
TASK_RUNS = [run for run, (engine, _) in RUNS.items() if engine != "fluid"]
FLUID_RUNS = [run for run, (engine, _) in RUNS.items() if engine == "fluid"]

#: the genuinely new compositions the refactor ships (each must run
#: under every task-engine run).
NEW_SCENARIOS = (
    "diurnal",
    "moving-hotspot",
    "power-law",
    "clustered",
    "fault-storm",
    "trace-replay",
)


def _payload(result) -> dict:
    payload = result.to_dict()
    del payload["wall_time_s"]
    return payload


def run_spec(spec: RunSpec, run: str):
    """Run *spec* the way *run* names (a :data:`RUNS` key), checking an
    indirect run against the solo one."""
    _, execute = RUNS[run]
    result = execute(spec)
    if execute is not execute_spec:
        assert _payload(result) == _payload(execute_spec(spec))
    return result


def run_cell(scenario: str, run: str, algorithm: str):
    spec = RunSpec(
        scenario=scenario,
        algorithm=algorithm,
        seed=1,
        max_rounds=5,
        scenario_kwargs=small_kwargs(scenario),
        engine=RUNS[run][0],
        recorder="summary",
    )
    result = run_spec(spec, run)
    assert 1 <= result.n_rounds <= 5
    assert len(result.records) == 0  # summary keeps no per-round rows
    assert result.final_cov >= 0.0
    summary = result.final_summary
    assert summary["cov"] >= 0.0
    return result


@pytest.mark.parametrize("run", TASK_RUNS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_scenario_runs_on_every_task_engine(scenario, run):
    run_cell(scenario, run, "diffusion")


@pytest.mark.parametrize("run", FLUID_RUNS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_scenario_runs_on_the_fluid_engine(scenario, run):
    run_cell(scenario, run, "fluid-diffusion")


def test_fluid_engine_is_a_projection_onto_the_initial_surface():
    # Contract (documented on RunSpec.engine): the fluid engine
    # simulates the initial load surface in the continuous limit;
    # task-granular extras have no divisible-load counterpart. So
    # `straggler` (torus hotspot + slow nodes) under fluid is exactly
    # the `torus-hotspot` surface — pinned here so the projection is a
    # promise, not an accident.
    base = dict(algorithm="fluid-diffusion", seed=3, max_rounds=10,
                scenario_kwargs={"side": 5, "n_tasks": 50}, engine="fluid")
    a = execute_spec(RunSpec(scenario="straggler", **base)).to_dict()
    b = execute_spec(RunSpec(scenario="torus-hotspot", **base)).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


@pytest.mark.parametrize("run", TASK_RUNS)
@pytest.mark.parametrize("scenario", NEW_SCENARIOS)
def test_new_compositions_balance_under_pplb(scenario, run):
    # The paper's own algorithm on each new composition, not just the
    # cheap baseline.
    run_cell(scenario, run, "pplb")


@pytest.mark.parametrize("run", list(RUNS))
def test_fully_dressed_composed_string_runs_everywhere(run):
    scenario = "mesh:6x6+clustered+fault-storm+tiered+diurnal"
    algorithm = "fluid-diffusion" if run in FLUID_RUNS else "pplb"
    spec = RunSpec(scenario=scenario, algorithm=algorithm, seed=2,
                   max_rounds=5, engine=RUNS[run][0], recorder="summary")
    result = run_spec(spec, run)
    assert 1 <= result.n_rounds <= 5


class TestEventsCaching:
    """The event engine through the cached runner stack."""

    BASE = dict(algorithm="pplb", seed=5, max_rounds=15,
                scenario_kwargs={"side": 5, "n_tasks": 60})

    def test_cache_round_trip(self, tmp_path):
        # Run → populate → replay: the second pass must be a pure cache
        # hit whose payload equals the freshly executed one.
        cache = ResultCache(tmp_path)
        specs = [RunSpec(scenario="torus-hotspot", engine="events",
                         **self.BASE)]
        first = run_grid(specs, cache=cache)
        assert not first[0].cached
        second = run_grid(specs, cache=cache)
        assert second[0].cached
        a = first[0].result.to_dict()
        b = second[0].result.to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_engines_never_share_cache_entries(self):
        # One entry per behaviour: the three engines key apart, and a
        # legacy spelling shares its base name's entry.
        def key(engine):
            algorithm = "fluid-diffusion" if engine == "fluid" else "pplb"
            return RunSpec(scenario="torus-hotspot", engine=engine,
                           **{**self.BASE, "algorithm": algorithm}).key()

        assert len({key(e) for e in ENGINES}) == len(ENGINES) == 3
        assert key("rounds-fast") == key("rounds")
        assert key("events-fast") == key("events")

    def test_old_events_cache_keys_are_untouched(self):
        # Neither adding events-fast nor folding it back into "events"
        # re-keys existing caches: the canonical encoding (and the
        # library version) of an "events" spec is what it always was.
        spec = RunSpec("torus-hotspot", "pplb", seed=1, max_rounds=5,
                       scenario_kwargs={"side": 4, "n_tasks": 32},
                       engine="events")
        assert spec.key() == (
            "ede32026076c6f25adf75c58115adbab8463d52df711533a06d1fefd6f74f792"
        )
