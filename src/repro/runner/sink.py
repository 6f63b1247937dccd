"""Streaming columnar result collection for grid runs.

A million-spec sweep cannot afford one rebuilt
:class:`~repro.sim.SimulationResult` (plus its JSON payload) per spec
held in memory. :class:`ColumnarResultLog` is the incremental sink
:func:`~repro.runner.runner.run_grid` appends finished specs to as
they land: one preallocated, growable NumPy array per metric field —
the same amortised-O(1) pattern as the kernel's
:class:`~repro.sim.results.RoundLog` — plus an optional on-disk
JSONL stream (one line per landed spec, flushed immediately, so a
monitoring tail sees results the moment they finish and a killed sweep
keeps everything already landed).

The metric schema is :func:`default_metrics` — the same seven scalars
a grid reports — which lives here so the sink and the cache index
agree on one definition without import cycles.

Rows land in completion order (parallel backends complete out of
order); every read surface (:meth:`rows`, :meth:`column`) sorts by the
original spec index, so consumers always see grid order.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import IO, Mapping

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim import SimulationResult

#: the sink's metric schema, in column order (all finite floats).
METRIC_FIELDS = (
    "final_cov",
    "final_spread",
    "migrations",
    "traffic",
    "heat",
    "rounds",
    "converged",
)

_MIN_CAPACITY = 64


def default_metrics(result: SimulationResult) -> dict[str, float]:
    """Standard scalar metrics of one run (all finite floats).

    ``converged_round`` is None for non-converged runs, so the
    aggregate exposes ``converged`` (0/1 rate) and ``rounds`` (rounds
    actually simulated) instead. All values come off the result's
    summary surface (columnar totals, or streamed aggregates for
    thin/summary-recorded runs), so any recorder merges cleanly.
    """
    return {
        "final_cov": float(result.final_cov),
        "final_spread": float(result.final_spread),
        "migrations": float(result.total_migrations),
        "traffic": float(result.total_traffic),
        "heat": float(result.total_heat),
        "rounds": float(result.n_rounds),
        "converged": float(result.converged),
    }


class ColumnarResultLog:
    """Growable columnar store of per-spec grid results.

    Parameters
    ----------
    path:
        Optional JSONL stream: every :meth:`append` also writes (and
        flushes) one line, so results are durable the moment they land.
        :meth:`load` reads such a stream back.
    capacity:
        Initial column capacity (grows geometrically either way).
    """

    __slots__ = (
        "_metrics", "_index", "_seed", "_cached",
        "_keys", "_scenarios", "_algorithms", "_engines", "_recorders",
        "_n", "_capacity", "path", "_fh",
    )

    def __init__(self, path: str | os.PathLike | None = None, capacity: int = 0):
        self._n = 0
        self._capacity = int(capacity)
        self._metrics = {
            name: np.empty(self._capacity, dtype=np.float64)
            for name in METRIC_FIELDS
        }
        self._index = np.empty(self._capacity, dtype=np.int64)
        self._seed = np.empty(self._capacity, dtype=np.int64)
        self._cached = np.empty(self._capacity, dtype=np.int64)
        self._keys: list[str] = []
        self._scenarios: list[str] = []
        self._algorithms: list[str] = []
        self._engines: list[str] = []
        self._recorders: list[str] = []
        self.path = pathlib.Path(path) if path is not None else None
        self._fh: IO[str] | None = None

    # ----------------------------- write ----------------------------- #

    def _grow(self, needed: int) -> None:
        new_cap = max(_MIN_CAPACITY, self._capacity * 2, needed)
        for name in METRIC_FIELDS:
            bigger = np.empty(new_cap, dtype=np.float64)
            bigger[: self._n] = self._metrics[name][: self._n]
            self._metrics[name] = bigger
        for attr in ("_index", "_seed", "_cached"):
            bigger = np.empty(new_cap, dtype=np.int64)
            bigger[: self._n] = getattr(self, attr)[: self._n]
            setattr(self, attr, bigger)
        self._capacity = new_cap

    def append(
        self,
        index: int,
        spec,
        key: str,
        cached: bool,
        metrics: Mapping[str, float],
    ) -> None:
        """Land one finished spec (called in completion order).

        *spec* is a :class:`~repro.runner.spec.RunSpec`; *metrics* a
        :func:`default_metrics`-shaped mapping (missing fields raise).
        """
        missing = [name for name in METRIC_FIELDS if name not in metrics]
        if missing:
            raise ConfigurationError(
                f"sink metrics missing fields {missing} for spec index {index}"
            )
        if self._n == self._capacity:
            self._grow(self._n + 1)
        slot = self._n
        for name in METRIC_FIELDS:
            self._metrics[name][slot] = float(metrics[name])
        self._index[slot] = int(index)
        self._seed[slot] = int(spec.seed)
        self._cached[slot] = int(bool(cached))
        self._keys.append(key)
        self._scenarios.append(spec.scenario)
        self._algorithms.append(spec.algorithm)
        self._engines.append(spec.engine)
        self._recorders.append(spec.recorder)
        self._n += 1
        if self.path is not None:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            line = {
                "index": int(index),
                "key": key,
                "scenario": spec.scenario,
                "algorithm": spec.algorithm,
                "seed": int(spec.seed),
                "engine": spec.engine,
                "recorder": spec.recorder,
                "cached": bool(cached),
                "metrics": {k: float(metrics[k]) for k in METRIC_FIELDS},
            }
            self._fh.write(json.dumps(line, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the JSONL stream (idempotent; in-memory data stays)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ColumnarResultLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------ read ------------------------------ #

    def __len__(self) -> int:
        return self._n

    def _order(self) -> np.ndarray:
        """Landing-order → spec-order permutation (stable)."""
        return np.argsort(self._index[: self._n], kind="stable")

    def column(self, name: str) -> np.ndarray:
        """One metric column in spec order (a copy; safe to mutate)."""
        if name not in self._metrics:
            raise ConfigurationError(
                f"unknown sink column {name!r}; available: {list(METRIC_FIELDS)}"
            )
        return self._metrics[name][: self._n][self._order()]

    def rows(self) -> list[dict[str, object]]:
        """One flat dict per landed spec, in spec (grid) order."""
        order = self._order()
        out = []
        for slot in order:
            slot = int(slot)
            row: dict[str, object] = {
                "index": int(self._index[slot]),
                "scenario": self._scenarios[slot],
                "algorithm": self._algorithms[slot],
                "seed": int(self._seed[slot]),
                "engine": self._engines[slot],
                "recorder": self._recorders[slot],
                "key": self._keys[slot],
                "cached": bool(self._cached[slot]),
            }
            for name in METRIC_FIELDS:
                row[name] = float(self._metrics[name][slot])
            out.append(row)
        return out

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ColumnarResultLog":
        """Rebuild a log from a JSONL stream written by :meth:`append`.

        Tolerates a torn trailing line (a killed run's partial write):
        malformed lines are skipped, everything whole is kept.
        """
        from repro.runner.spec import RunSpec  # lazy: avoids module cycle

        log = cls()
        source = pathlib.Path(path)
        with open(source, "r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                    spec = RunSpec(
                        scenario=line["scenario"],
                        algorithm=line["algorithm"],
                        seed=int(line["seed"]),
                        engine=line["engine"],
                        recorder=line["recorder"],
                    )
                    log.append(
                        index=int(line["index"]),
                        spec=spec,
                        key=str(line["key"]),
                        cached=bool(line["cached"]),
                        metrics=line["metrics"],
                    )
                except (KeyError, TypeError, ValueError, ConfigurationError):
                    continue  # torn or foreign line — keep the rest
        return log
