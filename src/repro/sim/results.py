"""Simulation results: columnar per-round history and summaries.

The per-round history lives in a :class:`RoundLog` — one preallocated,
growable NumPy array per metric field — rather than a Python list of
record objects. :class:`SimulationResult` bundles that log with
convergence information; ``result.records`` still reads (and appends)
like the historical ``list[RoundRecord]``, materialising
:class:`RoundRecord` objects on demand, while ``result.series`` hands
the analysis layer zero-iteration columnar arrays.

Results are JSON-serialisable via :meth:`SimulationResult.to_dict` /
:meth:`SimulationResult.from_dict`. The wire format is columnar (format
2): one JSON array per field instead of one keyed object per round,
which round-trips exactly (ints and floats survive
``json.dumps``/``loads`` unchanged) and shrinks runner-cache entries —
field names are stored once per result, not once per round.
:meth:`SimulationResult.from_dict` also reads the legacy record-list
format, so results cached before the columnar switch keep replaying.

Runs recorded with a thinning or summary recorder (see
:mod:`repro.sim.recording`) may keep less than the full history; they
carry an ``aggregates`` mapping of exact running totals so the summary
surface (``n_rounds``, ``total_migrations``, ``summary_row`` …) stays
exact regardless of what the log retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RoundRecord:
    """Metrics of one synchronous round (captured *after* applying it).

    Attributes
    ----------
    round_index:
        Zero-based round number.
    n_migrations:
        One-hop moves applied this round.
    traffic_work:
        Σ load·e_ij of this round's hops (uniform measure).
    heat:
        Σ balancer-reported heat of this round's hops (PPLB's E_h; 0 for
        balancers that do not model heat).
    cov, spread, max_load, min_load:
        Imbalance metrics of the post-round load vector.
    in_flight:
        Tasks still journeying after the round (0 for memoryless
        balancers).
    blocked:
        Migrations refused this round by the engine: the link was
        faulted (the balancer ordered them anyway — only possible for
        fault-oblivious balancers) or, under the event engine, busy
        (its per-time-unit capacity already spent by an earlier wave
        in the same epoch).
    n_tasks:
        Alive tasks after the round (varies under dynamic workloads).
    asleep:
        Migrations refused because neither endpoint's clock had fired
        in the wave that planned them (event engine only; always 0
        under the synchronous engine and in degenerate async runs).
    """

    round_index: int
    n_migrations: int
    traffic_work: float
    heat: float
    cov: float
    spread: float
    max_load: float
    min_load: float
    in_flight: int = 0
    blocked: int = 0
    n_tasks: int = 0
    asleep: int = 0


#: the columnar schema, in :class:`RoundRecord` field order.
_INT = np.int64
_FLOAT = np.float64
ROUND_FIELDS: tuple[tuple[str, type], ...] = (
    ("round_index", _INT),
    ("n_migrations", _INT),
    ("traffic_work", _FLOAT),
    ("heat", _FLOAT),
    ("cov", _FLOAT),
    ("spread", _FLOAT),
    ("max_load", _FLOAT),
    ("min_load", _FLOAT),
    ("in_flight", _INT),
    ("blocked", _INT),
    ("n_tasks", _INT),
    ("asleep", _INT),
)
_FIELD_NAMES = tuple(name for name, _ in ROUND_FIELDS)
_INT_NAMES = tuple(name for name, dtype in ROUND_FIELDS if dtype is _INT)
_FLOAT_NAMES = tuple(name for name, dtype in ROUND_FIELDS if dtype is _FLOAT)
_INT_FIELDS = frozenset(_INT_NAMES)
_MIN_CAPACITY = 64


class RoundLog:
    """Columnar per-round metric store: one growable array per field.

    Appending a round writes one slot in each of twelve preallocated
    NumPy arrays (amortised O(1), geometric growth); no per-round
    Python object exists unless :meth:`record` materialises one on
    demand. Columns are exposed as read-only views, so analysis code
    can consume million-round series without a copy.
    """

    __slots__ = ("_arrays", "_n", "_capacity")

    def __init__(self, capacity: int = 0):
        self._n = 0
        self._capacity = int(capacity)
        self._arrays = {
            name: np.empty(self._capacity, dtype=dtype)
            for name, dtype in ROUND_FIELDS
        }

    # ----------------------------- write ----------------------------- #

    def _grow(self, needed: int) -> None:
        new_cap = max(_MIN_CAPACITY, self._capacity * 2, needed)
        for name, dtype in ROUND_FIELDS:
            bigger = np.empty(new_cap, dtype=dtype)
            bigger[: self._n] = self._arrays[name][: self._n]
            self._arrays[name] = bigger
        self._capacity = new_cap

    def append_row(self, *values) -> None:
        """Append one round given values in :data:`ROUND_FIELDS` order."""
        if len(values) != len(_FIELD_NAMES):
            raise ConfigurationError(
                f"round row needs {len(_FIELD_NAMES)} values, got {len(values)}"
            )
        n = self._n
        if n >= self._capacity:
            self._grow(n + 1)
        arrays = self._arrays
        for name, value in zip(_FIELD_NAMES, values):
            arrays[name][n] = value
        self._n = n + 1

    def append_record(self, record: RoundRecord) -> None:
        """Append one materialised :class:`RoundRecord`."""
        self.append_row(*(getattr(record, name) for name in _FIELD_NAMES))

    # ----------------------------- read ------------------------------ #

    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one field's per-round values."""
        if name not in self._arrays:
            raise ConfigurationError(
                f"unknown round field {name!r}; known: {list(_FIELD_NAMES)}"
            )
        view = self._arrays[name][: self._n]
        view.flags.writeable = False
        return view

    def record(self, i: int) -> RoundRecord:
        """Materialise round *i* (supports negative indices)."""
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"round {i} out of range [0, {self._n})")
        arrays = self._arrays
        return RoundRecord(
            **{
                name: (int(arrays[name][i]) if name in _INT_FIELDS
                       else float(arrays[name][i]))
                for name in _FIELD_NAMES
            }
        )

    def records(self) -> list[RoundRecord]:
        """Materialise the whole history (prefer :meth:`column` at scale)."""
        return [self.record(i) for i in range(self._n)]

    # ----------------------------- wire ------------------------------ #

    def to_columns(self) -> dict[str, list]:
        """JSON-ready columnar payload (one list per field)."""
        return {name: self._arrays[name][: self._n].tolist() for name in _FIELD_NAMES}

    @classmethod
    def from_columns(cls, columns: Mapping[str, Sequence]) -> "RoundLog":
        """Rebuild a log from a :meth:`to_columns` payload."""
        missing = [name for name in _FIELD_NAMES if name not in columns]
        if missing:
            raise ConfigurationError(f"columnar payload missing fields {missing}")
        lengths = {len(columns[name]) for name in _FIELD_NAMES}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"columnar payload has ragged columns (lengths {sorted(lengths)})"
            )
        n = lengths.pop() if lengths else 0
        # Two conversions, not twelve: each row of a 2-D block is a
        # contiguous column the log then owns at capacity n.
        ints = np.array([columns[name] for name in _INT_NAMES], dtype=_INT)
        floats = np.array([columns[name] for name in _FLOAT_NAMES], dtype=_FLOAT)
        if ints.ndim != 2 or floats.ndim != 2:
            raise ConfigurationError("columnar payload holds non-scalar values")
        log = cls.__new__(cls)
        log._arrays = dict(zip(_INT_NAMES, ints))
        log._arrays.update(zip(_FLOAT_NAMES, floats))
        log._n = log._capacity = n
        return log

    @classmethod
    def from_records(cls, records: Iterable[RoundRecord]) -> "RoundLog":
        """Build a log from materialised records (legacy payloads)."""
        records = list(records)
        log = cls(capacity=len(records))
        for record in records:
            log.append_record(record)
        return log

    # --------------------------- plumbing ---------------------------- #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundLog):
            return NotImplemented
        if self._n != other._n:
            return False
        # NaN is a value a round can record (an undefined metric), so
        # a NaN cell matches a NaN cell.
        return all(
            np.array_equal(
                self._arrays[name][: self._n], other._arrays[name][: other._n],
                equal_nan=name not in _INT_FIELDS,
            )
            for name in _FIELD_NAMES
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundLog(rounds={self._n})"


class RecordsView:
    """List-like facade over a :class:`RoundLog`.

    Keeps the historical ``result.records`` surface working — append,
    index (including negatives and slices), iterate, compare — while
    the storage underneath stays columnar. Reading materialises
    :class:`RoundRecord` objects on demand.
    """

    __slots__ = ("_log",)

    def __init__(self, log: RoundLog):
        self._log = log

    def append(self, record: RoundRecord) -> None:
        self._log.append_record(record)

    def extend(self, records: Iterable[RoundRecord]) -> None:
        for record in records:
            self._log.append_record(record)

    def __len__(self) -> int:
        return len(self._log)

    def __bool__(self) -> bool:
        return len(self._log) > 0

    def __iter__(self) -> Iterator[RoundRecord]:
        for i in range(len(self._log)):
            yield self._log.record(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._log.record(i) for i in range(*index.indices(len(self._log)))]
        return self._log.record(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordsView):
            return self._log == other._log
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordsView({list(self)!r})"


@dataclass
class SimulationResult:
    """Full outcome of one simulation run.

    Attributes
    ----------
    log:
        Columnar per-round history (round 0 first; may be thinned or
        empty depending on the run's recorder). ``records[0]`` reflects
        the state after the first balancing round; the *initial* state
        is in :attr:`initial_summary`.
    converged_round:
        First round at which the convergence criterion held (None when
        the run hit ``max_rounds`` without converging).
    initial_summary / final_summary:
        Imbalance summaries of the initial and final load vectors.
    balancer_name:
        The algorithm that produced this run.
    wall_time_s:
        Wall-clock time of the run (whole loop, excluding setup).
    aggregates:
        Exact running totals streamed by a thinning/summary recorder
        (``rounds``, ``migrations``, ``traffic``, ``heat``,
        ``blocked``, ``asleep``, ``cov_mean``, ``spread_min``), or
        None when the log holds the complete history and totals are
        computed from the columns.
    telemetry:
        Aggregate block installed by an enabled probe (see
        :mod:`repro.sim.telemetry`): ``{"probe", "counters",
        "phases"}`` plus ``trace_path`` under the trace probe. None
        under the default null probe — and then absent from the wire
        format entirely, so probe-less payloads (including every
        pre-telemetry cache entry) are byte-identical to before.
    """

    log: RoundLog = field(default_factory=RoundLog)
    converged_round: int | None = None
    initial_summary: dict[str, float] = field(default_factory=dict)
    final_summary: dict[str, float] = field(default_factory=dict)
    balancer_name: str = ""
    wall_time_s: float = 0.0
    aggregates: dict[str, float] | None = None
    telemetry: dict[str, object] | None = None

    # ----------------------------- series ----------------------------- #

    @property
    def records(self) -> RecordsView:
        """List-like view of the per-round history (see :class:`RecordsView`)."""
        return RecordsView(self.log)

    def series(self, field_name: str) -> np.ndarray:
        """Per-round float64 array of one :class:`RoundRecord` field.

        Backed by the columnar log — no record objects are created.
        """
        return self.log.column(field_name).astype(np.float64)

    @property
    def n_rounds(self) -> int:
        """Rounds simulated (exact even when the log is thinned/empty)."""
        if self.aggregates is not None:
            return int(self.aggregates["rounds"])
        return len(self.log)

    @property
    def total_migrations(self) -> int:
        """Total one-hop moves across the run."""
        if self.aggregates is not None:
            return int(self.aggregates["migrations"])
        return int(self.log.column("n_migrations").sum())

    @property
    def total_traffic(self) -> float:
        """Cumulative Σ load·e over the run."""
        if self.aggregates is not None:
            return float(self.aggregates["traffic"])
        return float(sum(self.log.column("traffic_work")))

    @property
    def total_heat(self) -> float:
        """Cumulative balancer-reported heat over the run."""
        if self.aggregates is not None:
            return float(self.aggregates["heat"])
        return float(sum(self.log.column("heat")))

    @property
    def final_cov(self) -> float:
        """Imbalance (CoV) at the end of the run."""
        return self.final_summary.get("cov", float("nan"))

    @property
    def final_spread(self) -> float:
        """Max−min spread at the end of the run."""
        return self.final_summary.get("spread", float("nan"))

    @property
    def converged(self) -> bool:
        """Whether the convergence criterion was met."""
        return self.converged_round is not None

    def rounds_to_spread(self, target: float) -> int | None:
        """First recorded round whose post-round spread is ≤ *target*.

        ``None`` if no recorded round qualifies (or the run kept no
        per-round history at all — see :class:`~repro.sim.recording.
        SummaryRecorder`). Thinned logs answer from the rounds they
        kept.
        """
        spread = self.log.column("spread")
        hits = np.nonzero(spread <= target)[0]
        if hits.shape[0] == 0:
            return None
        return int(self.log.column("round_index")[hits[0]])

    # ------------------------- serialization ------------------------- #

    def to_dict(self) -> dict[str, object]:
        """JSON-ready columnar representation (wire format 2).

        One array per metric field instead of one keyed object per
        round; ``from_dict`` inverts it exactly (ints and floats
        round-trip through JSON's repr-based encoding unchanged).
        """
        data: dict[str, object] = {
            "format": 2,
            "columns": self.log.to_columns(),
            "aggregates": None if self.aggregates is None else dict(self.aggregates),
            "converged_round": self.converged_round,
            "initial_summary": dict(self.initial_summary),
            "final_summary": dict(self.final_summary),
            "balancer_name": self.balancer_name,
            "wall_time_s": self.wall_time_s,
        }
        # Omitted (not null) when no probe ran: probe-less payloads stay
        # byte-identical to the pre-telemetry wire format.
        if self.telemetry is not None:
            data["telemetry"] = dict(self.telemetry)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationResult":
        """Rebuild a result exported with :meth:`to_dict`.

        Reads both the columnar wire format and the legacy
        record-list format (``{"records": [{...}, ...], ...}``), so
        results cached before the columnar switch keep replaying.
        """
        if "columns" in data:
            log = RoundLog.from_columns(data["columns"])
            aggregates = data.get("aggregates")
            aggregates = None if aggregates is None else dict(aggregates)
        elif "records" in data:
            log = RoundLog.from_records(
                RoundRecord(**r) for r in data["records"]
            )
            aggregates = None
        else:
            raise ConfigurationError(
                "result payload has neither 'columns' nor 'records'"
            )
        telemetry = data.get("telemetry")
        return cls(
            log=log,
            converged_round=data["converged_round"],
            initial_summary=dict(data["initial_summary"]),
            final_summary=dict(data["final_summary"]),
            balancer_name=data["balancer_name"],
            wall_time_s=data["wall_time_s"],
            aggregates=aggregates,
            telemetry=None if telemetry is None else dict(telemetry),
        )

    def summary_row(self) -> dict[str, object]:
        """One-line summary for benchmark tables."""
        return {
            "algorithm": self.balancer_name,
            "rounds": self.n_rounds,
            "converged_round": self.converged_round,
            "final_cov": round(self.final_cov, 4),
            "final_spread": round(self.final_spread, 4),
            "migrations": self.total_migrations,
            "traffic": round(self.total_traffic, 2),
            "heat": round(self.total_heat, 2),
        }
