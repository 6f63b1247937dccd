"""Run specifications: the unit of work the parallel runner schedules.

A :class:`RunSpec` is plain data — scenario name (registered or a
composed component string), algorithm name, seed and keyword overrides
— so it can cross process boundaries, be hashed for the result cache,
and be rebuilt from JSON. Two specs with the same content produce the
same :meth:`RunSpec.key`, and executing a spec is a pure function of
its content (see :mod:`repro.runner.worker`), which is what makes
cached results safe to replay.

Scenario identity is *canonicalised* at construction: registered names
stay verbatim (pre-composition cache keys are unchanged, so old caches
keep replaying) while composed strings normalise to their canonical
grammar form, so every equivalent spelling of one setting shares one
cache entry.

:func:`expand_grid` builds the (scenario × algorithm × seed) cartesian
product in deterministic order; :func:`expand_component_grid` does the
same over *component axes* (topology × placement × links × … —
the workload cross product as data); :func:`grid_seeds` mints the per-
repetition seeds through :func:`repro.rng.seed_for`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.rng import seed_for

#: execution models a spec may request, one per time model (see
#: :mod:`repro.runner.worker`). Replicate batching is not an engine: it
#: is an execution strategy the runner applies to ``rounds`` and
#: ``fluid`` specs under ``run_grid(..., batch_replicates=N)``.
ENGINES = frozenset({"rounds", "events", "fluid"})

#: older engine spellings -> the engine each names (the one place that
#: knows them; a legacy spelling gets its base engine's cache key).
_LEGACY_ENGINES = {"rounds-fast": "rounds", "events-fast": "events"}


def canonical_engine(name: str) -> str:
    """*name* with a legacy spelling mapped to its engine; others as is."""
    return _LEGACY_ENGINES.get(name, name)


@dataclass
class RunSpec:
    """One simulation to run: everything needed to reproduce it exactly.

    Attributes
    ----------
    scenario:
        A registered name in :data:`repro.workloads.SCENARIOS` or a
        composed component string
        (``"mesh:16x16+hotspot+stragglers:frac=0.1"`` — see
        :mod:`repro.workloads.composition`). Canonicalised at
        construction: registered names verbatim, composed strings to
        their canonical grammar form.
    algorithm:
        Name in :data:`repro.runner.registry.FACTORIES` (task
        balancers) or, for ``engine="fluid"``,
        :data:`repro.runner.registry.FLUID_FACTORIES`.
    seed:
        Seed for both scenario construction and the simulator RNG
        (mirrors ``pplb run``'s single ``--seed``).
    max_rounds:
        Round budget handed to :meth:`Simulator.run`.
    scenario_kwargs:
        Size overrides forwarded to ``build_scenario`` (e.g. ``side``,
        ``n_tasks``).
    algorithm_kwargs:
        Config overrides forwarded to the balancer factory.
    sim_kwargs:
        Engine overrides forwarded to the simulator (e.g.
        ``transfer_latency``, ``link_capacity``; event-engine runs also
        accept ``cadence``, ``wake_jitter``, ``stragglers``, …).
    engine:
        Which execution model runs the spec: ``"rounds"`` (the
        synchronous :class:`~repro.sim.Simulator`, the default),
        ``"events"`` (the asynchronous
        :class:`~repro.sim.EventSimulator`) or ``"fluid"`` (the
        divisible-load :class:`~repro.sim.FluidSimulator`; requires a
        fluid algorithm). The fluid engine is a *projection*: it
        simulates the scenario's initial per-node load surface in the
        continuous limit — task-granular extras (node speeds, churn,
        fault realisation) have no divisible-load counterpart and do
        not apply, so e.g. ``straggler`` under ``fluid`` is exactly
        the ``torus-hotspot`` surface. Part of the content hash, so
        engines never share cache entries; a legacy spelling is read
        as its base engine (:func:`canonical_engine`).
    recorder:
        Recording policy for the run: ``"full"`` (every round, the
        default), ``"thin:<k>"`` or ``"summary"`` — see
        :mod:`repro.sim.recording`. Part of the content hash (a
        thinned result must never be replayed as a full one); the
        default is *omitted* from the canonical encoding so existing
        full-recording cache entries keep their keys.
    probe:
        Telemetry policy for the run: ``"null"`` (the default — off),
        ``"counters"`` or ``"trace[:path]"`` — see
        :mod:`repro.sim.telemetry`. Part of the content hash when
        enabled (a probed result carries a telemetry block a probe-less
        consumer did not ask for); the ``"null"`` default is *omitted*
        from the canonical encoding — the null probe provably changes
        nothing, so every existing cache key is unchanged.
    """

    scenario: str
    algorithm: str
    seed: int = 0
    max_rounds: int = 500
    scenario_kwargs: dict = field(default_factory=dict)
    algorithm_kwargs: dict = field(default_factory=dict)
    sim_kwargs: dict = field(default_factory=dict)
    engine: str = "rounds"
    recorder: str = "full"
    probe: str = "null"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        self.engine = canonical_engine(self.engine)
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; available: {sorted(ENGINES)}"
            )
        # Canonicalise the recorder spec (e.g. "thin:05" -> "thin:5") so
        # equivalent specs share one cache key; raises on unknown specs.
        from repro.sim.recording import recorder_tag
        from repro.sim.telemetry import probe_tag

        self.recorder = recorder_tag(self.recorder)
        self.probe = probe_tag(self.probe)
        # Validate names eagerly so a bad grid fails before any worker
        # spins up. Imported here to keep this module import-light for
        # worker processes.
        from repro.runner.registry import FACTORIES, FLUID_FACTORIES
        from repro.workloads.composition import canonical_scenario_name

        # Canonicalise the scenario identity and validate the kwargs in
        # one parse: registered names stay verbatim (their historical
        # cache keys must keep replaying), composed strings normalise
        # so equivalent spellings share one cache entry, and bad
        # overrides (typos, misrouted or out-of-range values) fail here
        # — before any worker spins up — with the accepted keys listed.
        # The per-name regimes (strict vs the legacy shared-kwargs
        # shim) live in repro.workloads.composition.
        self.scenario = canonical_scenario_name(
            self.scenario, self.scenario_kwargs
        )
        if self.engine == "fluid":
            if self.algorithm not in FLUID_FACTORIES:
                raise ConfigurationError(
                    f"the fluid engine needs a divisible-load algorithm, "
                    f"got {self.algorithm!r}; available: {sorted(FLUID_FACTORIES)}"
                )
        elif self.algorithm in FLUID_FACTORIES:
            raise ConfigurationError(
                f"algorithm {self.algorithm!r} is a fluid (divisible-load) "
                f"balancer; run it with engine='fluid'"
            )
        elif self.algorithm not in FACTORIES:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; available: {sorted(FACTORIES)}"
            )
        # Content-hash memo (version, digest): specs are treated as
        # immutable once constructed — mutate a copy, never an instance
        # a key() has been taken from.
        self._key_memo: tuple[str, str] | None = None

    # --------------------------- identity ---------------------------- #

    def to_dict(self) -> dict[str, object]:
        """Plain-data form (JSON-ready, inverts via :meth:`from_dict`).

        The default recorder (``"full"``) is omitted rather than
        encoded: the canonical JSON — and therefore the cache key — of
        every pre-recorder spec is unchanged, so caches populated
        before the recorder knob existed keep replaying.
        """
        payload = {
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "scenario_kwargs": dict(self.scenario_kwargs),
            "algorithm_kwargs": dict(self.algorithm_kwargs),
            "sim_kwargs": dict(self.sim_kwargs),
            "engine": self.engine,
        }
        if self.recorder != "full":
            payload["recorder"] = self.recorder
        if self.probe != "null":
            payload["probe"] = self.probe
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Rebuild a spec exported with :meth:`to_dict`."""
        return cls(
            scenario=data["scenario"],
            algorithm=data["algorithm"],
            seed=int(data["seed"]),
            max_rounds=int(data["max_rounds"]),
            scenario_kwargs=dict(data.get("scenario_kwargs", {})),
            algorithm_kwargs=dict(data.get("algorithm_kwargs", {})),
            sim_kwargs=dict(data.get("sim_kwargs", {})),
            engine=str(data.get("engine", "rounds")),
            recorder=str(data.get("recorder", "full")),
            probe=str(data.get("probe", "null")),
        )

    def canonical_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def replicate_key(self) -> str:
        """Canonical encoding minus ``seed``: the one grouping rule of
        replicate batching. Specs with equal replicate keys are seed
        replicates of one family, so they may share a topology build."""
        payload = self.to_dict()
        del payload["seed"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """Content hash (sha256 hex) — the result-cache address.

        The hash covers the spec content *and* the library version, so
        cached results are invalidated when the code that produced them
        changes (bump ``repro.__version__`` when altering simulation
        behaviour).

        Memoised per instance (keyed on the library version, so a
        version bump mid-process still re-hashes): a fully-cached grid
        replay asks for every key on every pass, and the canonical-JSON
        encode + sha256 dominates that loop for metadata-only reads.
        Specs are treated as immutable once constructed.
        """
        from repro import __version__

        memo = self._key_memo
        if memo is not None and memo[0] == __version__:
            return memo[1]
        tagged = f"repro-{__version__}:{self.canonical_json()}"
        digest = hashlib.sha256(tagged.encode("utf-8")).hexdigest()
        self._key_memo = (__version__, digest)
        return digest

    def label(self) -> str:
        """Short human-readable tag for progress lines."""
        tag = f"{self.scenario} × {self.algorithm} seed={self.seed}"
        if self.engine != "rounds":
            tag += f" [{self.engine}]"
        if self.recorder != "full":
            tag += f" [{self.recorder}]"
        if self.probe != "null":
            tag += f" [{self.probe}]"
        return tag


def grid_seeds(n: int, base_seed: int = 0) -> list[int]:
    """*n* deterministic seeds derived from *base_seed*.

    Seed *i* is ``seed_for(base_seed, i)``, so extending a grid by more
    repetitions never changes the seeds of existing ones.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one seed, got n={n}")
    return [seed_for(base_seed, i) for i in range(n)]


def expand_grid(
    scenarios: Sequence[str],
    algorithms: Sequence[str],
    seeds: Sequence[int],
    max_rounds: int = 500,
    scenario_kwargs: Mapping | None = None,
    algorithm_kwargs: Mapping | None = None,
    sim_kwargs: Mapping | None = None,
    engine: str = "rounds",
    recorder: str = "full",
    probe: str = "null",
) -> list[RunSpec]:
    """Cartesian (scenario × algorithm × seed) product.

    Scenarios, then algorithms, then seeds: the order is deterministic,
    so serial and parallel executions of the same grid agree on spec
    indices, and all replicates of one (scenario, algorithm) cell are
    adjacent, which keeps replicate batches
    (``run_grid(..., batch_replicates=...)``) and progress output in
    the caller's reading order. The outcome list of
    :func:`~repro.runner.runner.run_grid` matches the spec list
    index-for-index.
    """
    if not scenarios or not algorithms or not seeds:
        raise ConfigurationError(
            "expand_grid needs at least one scenario, algorithm and seed"
        )
    return [
        RunSpec(
            scenario=sc,
            algorithm=alg,
            seed=int(seed),
            max_rounds=max_rounds,
            scenario_kwargs=dict(scenario_kwargs or {}),
            algorithm_kwargs=dict(algorithm_kwargs or {}),
            sim_kwargs=dict(sim_kwargs or {}),
            engine=engine,
            recorder=recorder,
            probe=probe,
        )
        for sc in scenarios
        for alg in algorithms
        for seed in seeds
    ]


def expand_component_grid(
    algorithms: Sequence[str],
    seeds: Sequence[int],
    topologies: Sequence[str],
    placements: Sequence[str] = ("hotspot",),
    links: Sequence[str] = ("unit",),
    heterogeneity: Sequence[str | None] = (None,),
    dynamics: Sequence[str | None] = (None,),
    **expand_kwargs,
) -> list[RunSpec]:
    """Axis-wise grid expansion over scenario *components*.

    The scenario axis of :func:`expand_grid` becomes a cross product
    over component axes (each a sequence of grammar tokens; ``None``
    omits an optional kind), so a systematic comparison à la Eibl &
    Rüde — every topology × every load shape × every churn model — is
    one call::

        specs = expand_component_grid(
            ["pplb", "diffusion"], grid_seeds(3),
            topologies=["mesh:16x16", "torus:16x16", "hypercube:8"],
            placements=["hotspot", "clustered", "power-law"],
            dynamics=[None, "diurnal"],
        )

    Remaining keyword arguments are forwarded to :func:`expand_grid`.
    """
    from repro.workloads.composition import compose_scenarios

    scenarios = compose_scenarios(
        topologies, placements, links, heterogeneity, dynamics
    )
    return expand_grid(scenarios, algorithms, seeds, **expand_kwargs)
