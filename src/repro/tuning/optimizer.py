"""The optimizer harness: successive halving + a steady-state genetic
refinement, both running through the cached grid runner.

Search shape
------------
**Successive halving** is the workhorse: a pool of candidate configs
(the paper default always rides as candidate 0) is evaluated on a
*cheap* budget — few rounds, the ``rounds`` engine, the O(1)
``summary`` recorder — and only the top ``1/eta`` fraction is promoted
to the next rung, whose round budget is ``eta`` times larger, until the
full budget is reached. Bad configs cost almost nothing; good ones are
measured properly.

**Steady-state genetic refinement** then polishes: the full-budget
survivors seed a small population; each generation tournament-selects
two parents, crosses them over, mutates one dimension, evaluates the
child at the full budget and replaces the current worst member if the
child beats it.

Determinism — the property everything else leans on
---------------------------------------------------
Every stochastic step draws from generators derived via
:func:`repro.rng.derive` from ``(seed, stream, crc32(scenario))``, and
every candidate is canonicalised (:meth:`ParamSpace.canonical`) before
it becomes a :class:`~repro.runner.spec.RunSpec`. Two calls with the
same arguments therefore propose the *same specs in the same order* —
so a second run against the same cache is served entirely from disk,
and the winner, the eval count and the whole history are identical.
Ties are broken by candidate index (lower wins), so the paper default
wins any exact draw.

The objective (lower is better) is
``mean_over_seeds(final_cov + 0.01 · rounds_used/max_rounds)`` —
imbalance dominates; convergence speed breaks near-ties.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from os import PathLike
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.rng import derive
from repro.runner import ResultCache, RunSpec, grid_seeds, run_grid
from repro.runner.spec import canonical_engine
from repro.sim import SimulationResult
from repro.tuning.space import ParamSpace, default_pplb_space

#: spawn-key tags for the tuner's derived RNG streams (disjoint from
#: the scenario streams 0-3 by the (seed, tag, scenario-crc) keying).
_SAMPLE_STREAM = 101
_GA_STREAM = 102

#: weight of the convergence-speed tie-break in the objective.
_ROUNDS_WEIGHT = 0.01

#: engines a tuning session may evaluate on (task balancers only — the
#: fluid engine runs a different algorithm family).
TUNABLE_ENGINES = ("rounds", "events")


def score_result(result: SimulationResult, max_rounds: int) -> float:
    """The tuning objective for one run (lower is better)."""
    used = result.converged_round if result.converged_round is not None else max_rounds
    return float(result.final_cov) + _ROUNDS_WEIGHT * used / max_rounds


@dataclass
class TuneBudget:
    """The evaluation budget of one tuning session (all knobs that
    shape *how much* simulation a candidate costs)."""

    n_initial: int = 8
    eta: int = 2
    base_rounds: int = 50
    full_rounds: int = 200
    eval_seeds: int = 2
    engine: str = "rounds"
    recorder: str = "summary"
    ga_generations: int = 4
    ga_population: int = 4

    def __post_init__(self) -> None:
        if self.n_initial < 1:
            raise ConfigurationError(f"n_initial must be >= 1, got {self.n_initial}")
        if self.eta < 2:
            raise ConfigurationError(f"eta must be >= 2, got {self.eta}")
        if not 1 <= self.base_rounds <= self.full_rounds:
            raise ConfigurationError(
                f"need 1 <= base_rounds <= full_rounds, got "
                f"{self.base_rounds}/{self.full_rounds}"
            )
        if self.eval_seeds < 1:
            raise ConfigurationError(f"eval_seeds must be >= 1, got {self.eval_seeds}")
        if self.ga_generations < 0 or self.ga_population < 1:
            raise ConfigurationError(
                f"ga_generations must be >= 0 and ga_population >= 1, got "
                f"{self.ga_generations}/{self.ga_population}"
            )
        self.engine = canonical_engine(self.engine)
        if self.engine not in TUNABLE_ENGINES:
            raise ConfigurationError(
                f"engine {self.engine!r} is not tunable; available: "
                f"{sorted(TUNABLE_ENGINES)}"
            )

    def rungs(self) -> list[int]:
        """The halving round budgets: base, base·eta, … capped at full."""
        out = [self.base_rounds]
        while out[-1] < self.full_rounds:
            out.append(min(out[-1] * self.eta, self.full_rounds))
        return out

    def to_dict(self) -> dict[str, object]:
        return {
            "n_initial": self.n_initial,
            "eta": self.eta,
            "base_rounds": self.base_rounds,
            "full_rounds": self.full_rounds,
            "eval_seeds": self.eval_seeds,
            "engine": self.engine,
            "recorder": self.recorder,
            "ga_generations": self.ga_generations,
            "ga_population": self.ga_population,
        }


@dataclass
class TuneReport:
    """Everything one tuning session decided (and what it cost).

    ``winner`` is a *canonical* override dict — ``{}`` means the paper
    default won. ``score``/``default_score`` are both measured at the
    full budget on the same seeds, so ``score <= default_score`` always
    holds (the default is re-scored at the final rung even when halving
    eliminated it early).
    """

    scenario: str
    algorithm: str
    seed: int
    budget: TuneBudget
    winner: dict = field(default_factory=dict)
    score: float = float("inf")
    default_score: float = float("inf")
    n_evals: int = 0
    n_specs: int = 0
    cache_hits: int = 0
    history: list[dict] = field(default_factory=list)

    def improvement(self) -> float:
        """Relative objective gain of the winner over the default."""
        if self.default_score == 0:
            return 0.0
        return (self.default_score - self.score) / abs(self.default_score)


class _Evaluator:
    """Scores candidates through the cached grid runner, keeping the
    session-wide eval/spec/cache counters and the eval history."""

    def __init__(self, report: TuneReport, seeds: Sequence[int],
                 workers: int, cache: ResultCache | None,
                 batch_replicates: int | None = None):
        self.report = report
        self.seeds = list(seeds)
        self.workers = workers
        self.cache = cache
        self.batch_replicates = batch_replicates
        # canonical-json -> {rounds -> score}: dedup repeated evals (the
        # GA may re-propose a known candidate; the cache would absorb
        # the cost anyway, but the eval count should not double-book).
        self._seen: dict[str, dict[int, float]] = {}

    def scores(self, candidates: Sequence[Mapping], rounds: int,
               stage: str) -> list[float]:
        """Objective value per candidate at the given round budget."""
        spec_of: list[RunSpec | None] = []
        fresh: list[RunSpec] = []
        for overrides in candidates:
            key = _overrides_key(overrides)
            if rounds in self._seen.get(key, {}):
                spec_of.append(None)
                continue
            for s in self.seeds:
                fresh.append(RunSpec(
                    scenario=self.report.scenario,
                    algorithm=self.report.algorithm,
                    seed=s,
                    max_rounds=rounds,
                    algorithm_kwargs=dict(overrides),
                    engine=self.report.budget.engine,
                    recorder=self.report.budget.recorder,
                ))
            spec_of.append(fresh[-1])
        outcomes = run_grid(
            fresh, workers=self.workers, cache=self.cache,
            batch_replicates=self.batch_replicates,
        ) if fresh else []
        self.report.n_specs += len(fresh)
        self.report.cache_hits += sum(1 for o in outcomes if o.cached)

        out: list[float] = []
        cursor = 0
        for overrides, marker in zip(candidates, spec_of):
            key = _overrides_key(overrides)
            if marker is None:
                out.append(self._seen[key][rounds])
                continue
            batch = outcomes[cursor:cursor + len(self.seeds)]
            cursor += len(self.seeds)
            score = sum(
                score_result(o.result, rounds) for o in batch
            ) / len(batch)
            self._seen.setdefault(key, {})[rounds] = score
            self.report.n_evals += 1
            self.report.history.append({
                "stage": stage,
                "rounds": rounds,
                "overrides": dict(overrides),
                "score": round(score, 9),
            })
            out.append(score)
        return out


def _overrides_key(overrides: Mapping) -> str:
    return repr(sorted(overrides.items()))


def tune_scenario(
    scenario: str,
    algorithm: str = "pplb",
    space: ParamSpace | None = None,
    seed: int = 0,
    budget: TuneBudget | None = None,
    workers: int = 1,
    cache: ResultCache | str | PathLike | None = None,
    batch_replicates: int | None = None,
) -> TuneReport:
    """Search the balancer parameter space for one scenario family.

    Parameters
    ----------
    scenario:
        Registered name or composed component string; canonicalised, so
        every equivalent spelling tunes (and caches) as one family.
    algorithm:
        A :class:`~repro.core.PPLBConfig`-configured registry name
        (``"pplb"`` or ``"pplb-greedy"`` — the space speaks PPLBConfig).
    space:
        The dimensions to search (default :func:`default_pplb_space`).
    seed:
        Master seed: derives the candidate-sampling and GA streams
        *and* the per-repetition evaluation seeds (via
        :func:`~repro.runner.grid_seeds`).
    budget:
        A :class:`TuneBudget`; the default is a small smoke-size search.
    workers, cache:
        Forwarded to :func:`~repro.runner.run_grid` for every
        evaluation batch, so tuning parallelises and replays like any
        other grid. Above width 1 the shared persistent pool keeps the
        *same* warm worker processes across every halving rung and GA
        generation — one spawn per worker for the whole session instead
        of one pool per evaluation batch.
    batch_replicates:
        Forwarded to :func:`~repro.runner.run_grid`: groups each
        candidate's ``eval_seeds`` repetitions into one replicate
        batch, sharing one topology build (``events`` specs run solo).
        Bit-identical per replicate, so the winner, every score and the
        whole history are unchanged.

    Returns
    -------
    TuneReport — winner (canonical overrides), its full-budget score,
    the default's full-budget score, counters and the eval history.
    """
    if algorithm not in ("pplb", "pplb-greedy"):
        raise ConfigurationError(
            f"tuning searches PPLBConfig space; algorithm must be 'pplb' or "
            f"'pplb-greedy', got {algorithm!r}"
        )
    space = space if space is not None else default_pplb_space()
    budget = budget if budget is not None else TuneBudget()
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    # Canonicalise the scenario through RunSpec so the report, the
    # registry key and the cache all agree on one spelling.
    probe_spec = RunSpec(scenario=scenario, algorithm=algorithm,
                         max_rounds=budget.full_rounds,
                         engine=budget.engine, recorder=budget.recorder)
    report = TuneReport(scenario=probe_spec.scenario, algorithm=algorithm,
                        seed=seed, budget=budget)

    evaluator = _Evaluator(
        report,
        seeds=grid_seeds(budget.eval_seeds, base_seed=seed),
        workers=workers,
        cache=cache,
        batch_replicates=batch_replicates,
    )

    # crc32 is stable across processes and Python versions, unlike
    # hash(); it keys this scenario's streams apart from its siblings.
    tag = zlib.crc32(report.scenario.encode("utf-8"))
    sample_rng = derive(seed, _SAMPLE_STREAM, tag)

    # Candidate 0 is always the paper default: the tuned config can
    # never lose to it at equal budget (see the final re-score below).
    pool: list[dict] = [{}]
    while len(pool) < budget.n_initial:
        candidate = space.sample(sample_rng)
        if candidate not in pool:
            pool.append(candidate)

    # ---------------------- successive halving ---------------------- #
    survivors = list(range(len(pool)))
    scores: dict[int, float] = {}
    for rung_index, rounds in enumerate(budget.rungs()):
        rung_scores = evaluator.scores(
            [pool[i] for i in survivors], rounds, stage=f"halving:{rounds}"
        )
        scores = dict(zip(survivors, rung_scores))
        if rounds == budget.full_rounds:
            break
        keep = max(1, -(-len(survivors) // budget.eta))  # ceil division
        survivors = sorted(survivors, key=lambda i: (scores[i], i))[:keep]

    # --------------------- genetic refinement ----------------------- #
    ga_rng = derive(seed, _GA_STREAM, tag)
    population = sorted(scores, key=lambda i: (scores[i], i))
    population = population[: budget.ga_population]
    for _ in range(budget.ga_generations):
        if len(population) >= 2:
            a, b = (int(ga_rng.integers(0, len(population))) for _ in range(2))
            parents = (pool[population[a]], pool[population[b]])
            child = space.mutate(space.crossover(*parents, ga_rng), ga_rng)
        else:
            child = space.mutate(pool[population[0]], ga_rng)
        if child in pool:
            index = pool.index(child)
        else:
            pool.append(child)
            index = len(pool) - 1
        (child_score,) = evaluator.scores(
            [child], budget.full_rounds, stage="ga"
        )
        scores[index] = child_score
        if index not in population:
            worst = max(population, key=lambda i: (scores[i], -i))
            if (child_score, index) < (scores[worst], worst):
                population[population.index(worst)] = index

    # ------------------- final default-vs-winner --------------------- #
    # Guarantee: the default is scored at the full budget even when a
    # cheap rung eliminated it, so `score <= default_score` is exact.
    (default_score,) = evaluator.scores([{}], budget.full_rounds, stage="final")
    scores[0] = default_score

    full_scored = [i for i in scores if budget.full_rounds in
                   evaluator._seen[_overrides_key(pool[i])]]
    best = min(full_scored, key=lambda i: (scores[i], i))
    report.winner = dict(pool[best])
    report.score = scores[best]
    report.default_score = default_score
    return report


def tune_scenarios(
    scenarios: Sequence[str],
    **kwargs,
) -> dict[str, TuneReport]:
    """Tune each scenario family independently; reports keyed by the
    canonical scenario string, in input order."""
    out: dict[str, TuneReport] = {}
    for scenario in scenarios:
        report = tune_scenario(scenario, **kwargs)
        out[report.scenario] = report
    return out
