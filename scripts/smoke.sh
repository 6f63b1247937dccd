#!/bin/sh
# Smoke check: tier-1 tests, then tiny runner grids end-to-end.
#
# Usage: scripts/smoke.sh   (from the repository root)
#        SMOKE_SKIP_TESTS=1 scripts/smoke.sh   (grids only — CI runs the
#        tier-1 suite as its own step first)
#
# Exercises the full stack: the unit/property/integration suite, an
# 8-spec (scenario × algorithm × seed) grid across 2 worker processes,
# a second invocation that must be served entirely from the result
# cache (through the persistent pool backend), a 2-spec grid on the
# asynchronous event engine, the same grid spelled with the legacy
# events-fast engine name (it must replay from the events entries), a
# 2-spec grid with tasks on the wire (transfer latency on the rounds and
# events engines, then replayed from the cache), a 2-spec large-N grid
# (1024-node machines) on the rounds engine, a 2-spec grid under the
# O(1)-memory summary recorder (which must not share cache entries
# with the full-recorded runs), replicate-batched 4-seed grids on the
# rounds and events engines whose cache entries must replay unbatched
# (batched and solo runs share cache keys), the scenario catalogue listing, a
# composed-scenario (component grammar) grid, and a
# 2-spec divisible-load grid on the fluid engine.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

if [ "${SMOKE_SKIP_TESTS:-0}" != "1" ]; then
    echo "==> tier-1 tests"
    python -m pytest -x -q
fi

CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
GRID="--scenarios mesh-hotspot torus-hotspot --algorithms pplb diffusion \
      --seeds 2 --rounds 120 --cache-dir $CACHE_DIR/cache"

echo "==> runner grid (8 specs, 2 workers, cold cache)"
python -m repro.cli run-grid $GRID --workers 2 | tee "$CACHE_DIR/first.out"
grep -q "8 specs: 8 executed, 0 from cache" "$CACHE_DIR/first.out"
# workers=2 transparently upgrades to the persistent pool backend.
grep -q "runner: pool backend, 2 worker(s)" "$CACHE_DIR/first.out"

echo "==> runner grid again (must be fully cached, via the pool backend)"
python -m repro.cli run-grid $GRID --workers 2 | tee "$CACHE_DIR/second.out"
grep -q "8 specs: 0 executed, 8 from cache" "$CACHE_DIR/second.out"

echo "==> event-engine grid (2 specs, async execution model)"
python -m repro.cli run-grid --scenarios straggler --algorithms pplb diffusion \
    --seeds 1 --rounds 120 --engine events --cache-dir "$CACHE_DIR/cache" \
    | tee "$CACHE_DIR/events.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/events.out"

echo "==> the old events-fast spelling replays from the events entries"
# The CLI offers only the three engine names, but a spec (or a stored
# manifest) spelled "events-fast" reads as "events": the grid above
# answers it from the cache.
python - "$CACHE_DIR/cache" > "$CACHE_DIR/events_legacy.out" <<'PY'
import sys
from repro.runner import ResultCache, expand_grid, grid_seeds, run_grid
specs = expand_grid(["straggler"], ["pplb", "diffusion"], grid_seeds(1),
                    max_rounds=120, engine="events-fast")
outcomes = run_grid(specs, cache=ResultCache(sys.argv[1]))
print(f"{sum(o.cached for o in outcomes)} of {len(specs)} from cache")
PY
grep -q "2 of 2 from cache" "$CACHE_DIR/events_legacy.out"

echo "==> tasks on the wire (transfer latency on both task engines)"
# The CLI has no sim-kwargs flag, so the two latency-bearing specs are
# built here: a rounds spec with a 2-round wire and an events spec with
# size-proportional latency under jittered clocks. Each must trace a
# different curve than its instantaneous twin, and a second pass must
# replay both from the cache. Their own cache keeps the entry counts
# checked at the end.
cat > "$CACHE_DIR/wire.py" <<'PY'
import sys
from dataclasses import replace

import numpy as np

from repro.runner import ResultCache, RunSpec, execute_spec, run_grid

common = dict(scenario="power-law", algorithm="pplb", seed=0, max_rounds=60,
              scenario_kwargs={"side": 8})
specs = [
    RunSpec(engine="rounds", sim_kwargs={"transfer_latency": 2}, **common),
    RunSpec(engine="events", sim_kwargs={"transfer_latency": "size",
                                         "wake_jitter": 0.3}, **common),
]
outcomes = run_grid(specs, cache=ResultCache(sys.argv[1]))
for o in outcomes:
    kwargs = {**o.spec.sim_kwargs, "transfer_latency": 0}
    instant = execute_spec(replace(o.spec, sim_kwargs=kwargs))
    assert not np.array_equal(o.result.series("cov"), instant.series("cov")), o.spec
executed = sum(not o.cached for o in outcomes)
print(f"wire: {executed} executed, {len(outcomes) - executed} from cache")
PY
python "$CACHE_DIR/wire.py" "$CACHE_DIR/wire-cache" | tee "$CACHE_DIR/wire.out"
grep -q "wire: 2 executed, 0 from cache" "$CACHE_DIR/wire.out"
python "$CACHE_DIR/wire.py" "$CACHE_DIR/wire-cache" | tee "$CACHE_DIR/wire_again.out"
grep -q "wire: 0 executed, 2 from cache" "$CACHE_DIR/wire_again.out"

echo "==> large-N grid (2 specs, 1024-node machines)"
python -m repro.cli run-grid --scenarios torus-32x32 hotspot-scaled \
    --algorithms pplb --seeds 1 --rounds 60 --engine rounds \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/large_n.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/large_n.out"

echo "==> summary-recorder grid (2 specs, O(1) record memory)"
# Same scenario/seed as the full-recorded grid above: distinct recorder
# policies must produce distinct cache entries, never replay each other.
python -m repro.cli run-grid --scenarios mesh-hotspot --algorithms pplb diffusion \
    --seeds 1 --rounds 120 --recorder summary --cache-dir "$CACHE_DIR/cache" \
    | tee "$CACHE_DIR/summary.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/summary.out"

echo "==> replicate-batched grid (4 seeds on one shared topology build)"
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 --batch-replicates 4 \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/batch.out"
grep -q "4 specs: 4 executed, 0 from cache" "$CACHE_DIR/batch.out"

echo "==> batched cache entries replay under the scalar path"
# Batching is invisible to the cache: the same grid without
# --batch-replicates must be served entirely from the batched entries.
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/batch_replay.out"
grep -q "4 specs: 0 executed, 4 from cache" "$CACHE_DIR/batch_replay.out"

echo "==> replicate-batched grid on the events engine, replayed unbatched"
# Its own cache, so the entry counts checked below stay those of the
# grids above.
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 --engine events --batch-replicates 4 \
    --cache-dir "$CACHE_DIR/events-batch" | tee "$CACHE_DIR/batch_events.out"
grep -q "4 specs: 4 executed, 0 from cache" "$CACHE_DIR/batch_events.out"
python -m repro.cli run-grid --scenarios mesh-random --algorithms pplb \
    --seeds 4 --rounds 60 --engine events \
    --cache-dir "$CACHE_DIR/events-batch" | tee "$CACHE_DIR/batch_events_replay.out"
grep -q "4 specs: 0 executed, 4 from cache" "$CACHE_DIR/batch_events_replay.out"

echo "==> scenario catalogue (registered names + component registries)"
python -m repro.cli scenarios > "$CACHE_DIR/scenarios.out"
grep -q "mesh-hotspot" "$CACHE_DIR/scenarios.out"
grep -q "dynamics components" "$CACHE_DIR/scenarios.out"

echo "==> composed-scenario grid (component grammar, 1024-node machines)"
python -m repro.cli run-grid --scenarios "mesh:32x32+hotspot+stragglers" \
    --algorithms pplb diffusion --seeds 1 --rounds 60 \
    --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/composed.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/composed.out"

echo "==> fluid-engine grid (2 specs, divisible-load model)"
python -m repro.cli run-grid --scenarios mesh-hotspot \
    --algorithms fluid-diffusion fluid-sos --seeds 1 --rounds 120 \
    --engine fluid --cache-dir "$CACHE_DIR/cache" | tee "$CACHE_DIR/fluid.out"
grep -q "2 specs: 2 executed, 0 from cache" "$CACHE_DIR/fluid.out"

echo "==> cache stats / reindex / clear round-trip"
# Capture to files rather than piping into grep -q: grep exiting early
# would hand the CLI a broken pipe (and mask its exit status).
python -m repro.cli cache stats --cache-dir "$CACHE_DIR/cache" > "$CACHE_DIR/stats.out"
grep -q "entries    : 22" "$CACHE_DIR/stats.out"
grep -q "mean entry" "$CACHE_DIR/stats.out"
grep -q "indexed    : 22/22" "$CACHE_DIR/stats.out"
grep -q "events     : 2" "$CACHE_DIR/stats.out"
python -m repro.cli cache reindex --cache-dir "$CACHE_DIR/cache" \
    > "$CACHE_DIR/reindex.out"
grep -q "indexed 22 cached result" "$CACHE_DIR/reindex.out"
# The stats filter takes the legacy spelling too and counts its base.
python -m repro.cli cache stats --cache-dir "$CACHE_DIR/cache" --engine events-fast \
    > "$CACHE_DIR/stats_filtered.out"
grep -q "entries    : 2 (events)" "$CACHE_DIR/stats_filtered.out"
python -m repro.cli cache clear --cache-dir "$CACHE_DIR/cache" > "$CACHE_DIR/clear.out"
grep -q "removed 22 cached result" "$CACHE_DIR/clear.out"

echo "==> smoke OK"
