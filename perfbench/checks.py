"""Output checks and the environment fingerprint.

Every spec's :func:`~repro.runner.sink.default_metrics` is reduced to a
short digest of its exact float values. A pass is checked spec by spec
against a reference digest list: the one frozen in ``reference.json``
for the default workload seed, otherwise the run's own first pass (or,
for replays, the cold results the replay must reproduce bit for bit).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
from typing import Mapping, Sequence

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: the workload seed whose per-spec digests are frozen in reference.json.
DEFAULT_SEED = 0

#: default_metrics fields, in digest order.
METRIC_FIELDS = (
    "final_cov", "final_spread", "migrations", "traffic", "heat", "rounds",
    "converged",
)


def spec_digest(metrics: Mapping[str, float] | None) -> str | None:
    """16-hex digest of one spec's metrics (None for a spec that raised).

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    two digests agree only when every value is bit-identical.
    """
    if metrics is None:
        return None
    values = [float(metrics[name]) for name in METRIC_FIELDS]
    return hashlib.sha256(json.dumps(values).encode("ascii")).hexdigest()[:16]


def grid_digest(digests: Sequence[str | None]) -> str:
    """One digest over a whole pass, in spec order."""
    text = "\n".join(d or "-" for d in digests)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def count_mismatches(
    got: Sequence[str | None], want: Sequence[str | None]
) -> int:
    """Specs that raised (None) or disagree with a known reference."""
    if len(got) != len(want):
        raise ValueError(f"pass has {len(got)} specs, reference {len(want)}")
    return sum(
        1 for g, w in zip(got, want) if g is None or (w is not None and g != w)
    )


def load_reference(workload: str, seed: int) -> list[str] | None:
    """Frozen per-spec digests for *workload* at *seed*, if any."""
    if seed != DEFAULT_SEED or not REFERENCE_PATH.exists():
        return None
    frozen = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    entry = frozen.get(workload)
    return None if entry is None else list(entry["specs"])


def save_reference(workload: str, seed: int, digests: Sequence[str]) -> None:
    """Freeze *digests* as the reference for *workload* at *seed*."""
    if seed != DEFAULT_SEED:
        raise ValueError(f"references are frozen at seed {DEFAULT_SEED} only")
    frozen = {}
    if REFERENCE_PATH.exists():
        frozen = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    frozen[workload] = {
        "seed": seed, "digest": grid_digest(digests), "specs": list(digests),
    }
    REFERENCE_PATH.write_text(
        json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


# ----------------------------- fingerprint ----------------------------- #


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: pathlib.Path) -> str | None:
    """HEAD's commit read from ``.git`` directly (no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: pathlib.Path) -> str:
    """Digest of every ``.py`` file under *src*: names the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: pathlib.Path, pool_width: int) -> dict[str, object]:
    """The machine class and code a result was measured on."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root / "src"),
        "pool_width": pool_width,
    }
