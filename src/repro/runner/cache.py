"""Content-addressed on-disk result cache.

Each cached entry is one JSON file named by the spec's content hash
(sharded by the first two hex digits to keep directories small) and
holds both the spec that produced it and the serialized
:class:`~repro.sim.SimulationResult`. Because a spec's execution is a
pure function of its content, a hit can be replayed in place of a
simulation — re-running an already-computed grid is free.

Robustness: writes are atomic (temp file + ``os.replace``) so an
interrupted run never leaves a truncated entry, and unreadable/corrupt
entries are treated as misses rather than errors.

Entry format 2: packed round columns
------------------------------------
A result's per-round log is twelve equal-length lists, ~800 numbers for
a 67-round run, and parsing them one JSON float at a time was most of
a replay's cost. So when a payload's ``"columns"`` holds exactly the
:data:`~repro.sim.results.ROUND_FIELDS` lists, a version-2 entry
stores them as ``{"rounds": n, "b64": ...}``: one base64 block of the
six int64 columns, then the six float64 columns, little-endian, each
column ``n`` values long (96 bytes per round). :meth:`ResultCache.get`
decodes it back into the same lists in the same key order, so callers
see the payload :meth:`~repro.sim.SimulationResult.to_dict` produced,
``json.dumps``-identical. Every other key, and every payload without
such columns (the legacy ``"records"`` form, arbitrary payloads), is
stored as plain JSON. Version-1 entries (lists throughout) still
replay; builds that only read version 1 see version-2 entries as
misses and re-execute, so a shared cache never crashes either.

The index sidecar
-----------------
``<root>/index.jsonl`` is an append-only metadata log: one line per
:meth:`put` with the entry's key, spec coordinates, payload size and
(when the writer supplies them) the :func:`~repro.runner.sink.
default_metrics` scalars. It exists so metadata questions —
:meth:`stats`, per-engine filters, metric-level grid replays — cost
O(entries) small-line parses instead of O(total bytes) full-payload
parses. The **store stays the source of truth**: every index read is
cross-checked against entry existence, a missing/stale index degrades
to the legacy full scan, and :meth:`rebuild_index` regenerates it
atomically (temp file + ``os.replace``).

Concurrent multi-process writers stay safe: each index append is a
single ``O_APPEND`` write of one line (atomic for these sizes on
POSIX), entry writes keep the tmp+replace discipline, and
:meth:`load_index` skips torn/malformed lines (last line of a crashed
writer) with last-write-wins per key.
"""

from __future__ import annotations

import binascii
import json
import logging
import os
import pathlib
import tempfile

import numpy as np

from repro.sim.results import ROUND_FIELDS

logger = logging.getLogger(__name__)

CACHE_FORMAT_VERSION = 2
#: entry versions :meth:`ResultCache.get` replays (1: columns as lists).
_READABLE_VERSIONS = (1, 2)

#: the metadata sidecar's filename (lives at the cache root, outside
#: the two-hex-digit shard directories so entry scans never see it).
INDEX_NAME = "index.jsonl"

_COLUMN_NAMES = tuple(name for name, _ in ROUND_FIELDS)
_COLUMN_SET = frozenset(_COLUMN_NAMES)
_INT_NAMES = tuple(name for name, dtype in ROUND_FIELDS if dtype is np.int64)
_FLOAT_NAMES = tuple(name for name, dtype in ROUND_FIELDS if dtype is np.float64)
_INT_BLOCK = np.dtype("<i8")
_FLOAT_BLOCK = np.dtype("<f8")
#: packed bytes per round: one int64 or float64 per field.
_ROUND_BYTES = 8 * len(_COLUMN_NAMES)


def _pack_columns(payload: object) -> object:
    """*payload* with its round columns packed for the entry format.

    The columns go through the same two conversions
    :meth:`~repro.sim.results.RoundLog.from_columns` makes, so the
    entry rebuilds into the same result; a
    :meth:`~repro.sim.SimulationResult.to_dict` payload also replays
    ``json.dumps``-identical. Returns the payload itself when
    ``"columns"`` is not exactly the :data:`ROUND_FIELDS` lists of one
    length that int64 and float64 blocks hold; those stay plain JSON.
    """
    columns = payload.get("columns") if isinstance(payload, dict) else None
    if not isinstance(columns, dict) or columns.keys() != _COLUMN_SET:
        return payload
    try:
        ints = np.array([columns[name] for name in _INT_NAMES], dtype=_INT_BLOCK)
        floats = np.array([columns[name] for name in _FLOAT_NAMES], dtype=_FLOAT_BLOCK)
    except (TypeError, ValueError, OverflowError):
        return payload  # ragged, or values no numeric block holds
    if ints.ndim != 2 or floats.shape != ints.shape:
        return payload
    block = binascii.b2a_base64(ints.tobytes() + floats.tobytes(), newline=False)
    return {**payload,
            "columns": {"rounds": ints.shape[1], "b64": block.decode("ascii")}}


def _unpack_columns(packed: dict) -> dict[str, list] | None:
    """The :data:`ROUND_FIELDS` lists of a packed block, or None when
    the block is malformed (bad ``rounds``, not base64, wrong length)."""
    rounds, text = packed.get("rounds"), packed.get("b64")
    if type(rounds) is not int or rounds < 0 or not isinstance(text, str):
        return None
    size = _ROUND_BYTES * rounds
    # Exactly the characters *size* bytes encode to: a2b_base64 skips
    # characters outside the alphabet, so any such character leaves
    # the decoded block short of *size* (or fails the padding check).
    if len(text) != 4 * -(-size // 3):
        return None
    try:
        block = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error, or non-ASCII text
        return None
    if len(block) != size:
        return None
    n_ints, n_floats = len(_INT_NAMES), len(_FLOAT_NAMES)
    ints = np.frombuffer(block, _INT_BLOCK, count=n_ints * rounds)
    floats = np.frombuffer(block, _FLOAT_BLOCK, offset=8 * n_ints * rounds)
    lists = dict(zip(_INT_NAMES, ints.reshape(n_ints, rounds).tolist()))
    lists.update(zip(_FLOAT_NAMES, floats.reshape(n_floats, rounds).tolist()))
    return {name: lists[name] for name in _COLUMN_NAMES}


def _entry_result(entry: object) -> object | None:
    """The JSON-ready result payload of a parsed entry, or None when
    the entry is not one :meth:`ResultCache.get` can replay."""
    if not isinstance(entry, dict) or entry.get("version") not in _READABLE_VERSIONS:
        return None
    result = entry.get("result")
    if entry["version"] == 2 and isinstance(result, dict):
        columns = result.get("columns")
        if isinstance(columns, dict) and "b64" in columns:
            columns = _unpack_columns(columns)
            if columns is None:
                return None
            result["columns"] = columns
    return result


class ResultCache:
    """JSON result store addressed by :meth:`RunSpec.key` hashes.

    Parameters
    ----------
    root:
        Directory to store entries under (created lazily on first put).

    Attributes
    ----------
    hits, misses:
        Lookup counters since construction (cache-effectiveness
        reporting in the runner's progress summary).
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0
        #: lazily-loaded view of the index sidecar (key -> metadata);
        #: None until first metadata read, refreshed by invalidation.
        self._index: dict[str, dict] | None = None

    @property
    def index_path(self) -> pathlib.Path:
        """Location of the metadata sidecar."""
        return self.root / INDEX_NAME

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a content hash (``<root>/<k[:2]>/<k>.json``)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Stored payload for *key*, or None (corrupt entries = miss)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                result = _entry_result(json.loads(fh.read()))
        except (OSError, ValueError):
            # ValueError covers both JSONDecodeError and the
            # UnicodeDecodeError a binary stray file raises.
            result = None
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def reject(self) -> None:
        """Recount the last :meth:`get` hit as a miss.

        For a payload that parsed but that the caller cannot rebuild
        into a result: the spec re-executes and :meth:`put` rewrites
        the entry whole.
        """
        self.hits -= 1
        self.misses += 1

    def put(
        self,
        key: str,
        spec_dict: dict,
        result_payload: dict,
        metrics: dict | None = None,
    ) -> pathlib.Path:
        """Atomically store a result payload under *key*.

        ``metrics`` (optional, :func:`~repro.runner.sink.
        default_metrics`-shaped) rides into the index sidecar so later
        metric-level reads skip the full payload entirely.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "spec": spec_dict,
            "result": _pack_columns(result_payload),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        meta = self._index_meta(key, spec_dict, path, metrics)
        self._append_index_line(meta)
        if self._index is not None:
            self._index[key] = meta
        return path

    # --------------------------- the index --------------------------- #

    @staticmethod
    def _index_meta(key: str, spec_dict: dict, path: pathlib.Path,
                    metrics: dict | None) -> dict:
        meta = {
            "key": key,
            "scenario": str(spec_dict.get("scenario", "")),
            "algorithm": str(spec_dict.get("algorithm", "")),
            "seed": int(spec_dict.get("seed", 0)),
            "engine": str(spec_dict.get("engine", "rounds")),
            "recorder": str(spec_dict.get("recorder", "full")),
        }
        try:
            meta["bytes"] = path.stat().st_size
        except OSError:
            meta["bytes"] = 0
        if metrics is not None:
            meta["metrics"] = {k: float(v) for k, v in metrics.items()}
        return meta

    def _append_index_line(self, meta: dict) -> None:
        """One O_APPEND write per line: atomic at these sizes on POSIX,
        so concurrent writers interleave whole lines, never fragments."""
        line = (json.dumps(meta, sort_keys=True) + "\n").encode("utf-8")
        try:
            fd = os.open(
                self.index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError as exc:  # index is an accelerator, never a gate
            logger.warning("could not append cache index line: %s", exc)

    def load_index(self) -> dict[str, dict]:
        """The index sidecar as ``{key: metadata}`` (cached in memory).

        Malformed lines — a torn write from a crashed process, stray
        garbage — are skipped; duplicate keys resolve last-write-wins
        (an append-only log re-putting a key appends a newer line).
        Missing sidecar = empty mapping (callers fall back to the
        legacy full scan).
        """
        if self._index is not None:
            return self._index
        index: dict[str, dict] = {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        meta = json.loads(raw)
                    except ValueError:
                        continue  # torn line — skip, keep the rest
                    if isinstance(meta, dict) and isinstance(meta.get("key"), str):
                        index[meta["key"]] = meta
        except OSError:
            pass  # no sidecar yet (pre-index cache, or empty cache)
        self._index = index
        return index

    def invalidate_index(self) -> None:
        """Drop the in-memory index view (next read re-loads the file).

        Call after another process may have appended (e.g. between
        grid passes of a multi-host run); single-process use never
        needs it — :meth:`put` keeps the view current.
        """
        self._index = None

    def metrics_for(self, key: str) -> dict | None:
        """Indexed :func:`default_metrics` scalars for *key*, or None.

        None means "not answerable from the index" — the entry is
        missing, pre-dates the index, or was indexed without metrics —
        and the caller should fall back to :meth:`get`. The entry file
        is stat-checked so a stale index line never fabricates a hit.
        """
        meta = self.load_index().get(key)
        if meta is None:
            return None
        metrics = meta.get("metrics")
        if not isinstance(metrics, dict):
            return None
        if not self.path_for(key).exists():
            return None  # entry deleted since indexing — not a hit
        self.hits += 1
        return dict(metrics)

    def rebuild_index(self, with_metrics: bool = True) -> int:
        """Regenerate the sidecar from the store; returns entries indexed.

        Atomic (temp file + ``os.replace``), so concurrent readers see
        either the old or the new index, never a partial one. With
        ``with_metrics`` (the default) each entry's result is rebuilt
        once to store its :func:`default_metrics` scalars — the upfront
        cost that makes later metric-level replays O(index).
        """
        if with_metrics:
            # Lazy imports: the cache stays import-light for workers;
            # rebuilding is an explicit maintenance operation.
            from repro.runner.sink import default_metrics
            from repro.sim import SimulationResult

        count = 0
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if self.root.is_dir():
                    for path in sorted(self.root.glob("*/*.json")):
                        try:
                            with open(path, "rb") as entry_fh:
                                entry = json.loads(entry_fh.read())
                            key = entry["key"]
                            spec = entry.get("spec") or {}
                        except (OSError, ValueError, KeyError, TypeError) as exc:
                            logger.warning(
                                "reindex skipping unreadable entry %s: %s",
                                path, exc,
                            )
                            continue
                        metrics = None
                        if with_metrics:
                            try:
                                result = SimulationResult.from_dict(
                                    _entry_result(entry)
                                )
                                metrics = default_metrics(result)
                            except Exception as exc:
                                logger.warning(
                                    "reindex: no metrics for %s: %s", path, exc
                                )
                        meta = self._index_meta(key, spec, path, metrics)
                        fh.write(json.dumps(meta, sort_keys=True) + "\n")
                        count += 1
            os.replace(tmp, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._index = None
        return count

    # ------------------------- introspection ------------------------- #

    def __len__(self) -> int:
        """Number of entries on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> dict[str, object]:
        """On-disk usage summary (``pplb cache stats``).

        Returns ``root``, whether it exists, entry count, total payload
        bytes, the mean entry size and a per-engine entry breakdown
        (``by_engine``) — everything needed to decide whether the cache
        is worth keeping or due a :meth:`clear`, and the number that
        makes a wire-format change (e.g. the columnar round log)
        visible on disk.

        Entry counts and byte totals come from a directory scan (cheap,
        always exact); the per-entry *spec* metadata is answered from
        the index sidecar where possible — O(entries) line lookups —
        and only entries the index does not cover fall back to the
        legacy full-payload parse (entries whose spec cannot be read
        either way count under ``"(unreadable)"``). ``indexed`` reports
        the sidecar's coverage of the scanned entries.
        """
        entries = 0
        total_bytes = 0
        indexed = 0
        by_engine: dict[str, int] = {}
        index = self.load_index()
        if self.root.is_dir():
            for path in self.root.glob("*/*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue  # entry vanished mid-scan
                entries += 1
                meta = index.get(path.stem)
                if meta is not None and "engine" in meta:
                    indexed += 1
                    engine = str(meta["engine"])
                else:
                    try:
                        with open(path, "r", encoding="utf-8") as fh:
                            spec = json.load(fh).get("spec") or {}
                        engine = str(spec.get("engine", "rounds"))
                    except (OSError, ValueError, AttributeError) as exc:
                        # Stray non-JSON (or binary: UnicodeDecodeError
                        # is a ValueError) files must not crash the scan.
                        logger.warning(
                            "skipping unreadable cache entry %s: %s", path, exc
                        )
                        engine = "(unreadable)"
                by_engine[engine] = by_engine.get(engine, 0) + 1
        return {
            "root": str(self.root),
            "exists": self.root.is_dir(),
            "entries": entries,
            "total_bytes": total_bytes,
            "mean_bytes": total_bytes / entries if entries else 0.0,
            "by_engine": by_engine,
            "indexed": indexed,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed.

        Leaves the root directory itself in place (it may be configured
        in scripts) but prunes the now-empty shard subdirectories and
        the index sidecar (which indexes nothing once the store is
        empty).
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        try:
            self.index_path.unlink()
        except OSError:
            pass  # never existed (pre-index cache) — fine
        self._index = None
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (stray files) — leave it
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
