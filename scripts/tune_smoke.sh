#!/bin/sh
# Tune smoke: the self-tuning pipeline's determinism contract, end to end.
#
# Usage: scripts/tune_smoke.sh   (from the repository root)
#        TUNE_SMOKE_OUT=path.json scripts/tune_smoke.sh
#
# Runs `pplb tune` on a tiny fixed-seed budget (2 scenario families,
# <=16 evaluations, summary recorder) twice against the same result
# cache and asserts the whole contract the tuning stack promises:
#
#   * the second tune run — forced onto the persistent pool backend at
#     width 2 via the PPLB_WORKERS environment override — executes zero
#     fresh simulations (pure cache replay) and writes a byte-identical
#     tuned-config registry — same winners, same scores, same eval
#     counts, regardless of execution backend;
#   * the registry survives a load -> save round trip byte-for-byte;
#   * `pplb leaderboard` emits byte-identical JSON across two
#     invocations (the payload carries no wall times or cache state).
#
# The final leaderboard JSON is left at $TUNE_SMOKE_OUT (default
# ./tune-smoke-leaderboard.json) for CI to upload as an artifact.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
OUT="${TUNE_SMOKE_OUT:-tune-smoke-leaderboard.json}"

# 4-candidate pool, rungs 40->80, 1 eval seed, 1 GA child: at most
# 8 evals per scenario, 16 total — small enough for a CI smoke job.
TUNE="--scenarios mesh-hotspot torus-hotspot --seed 0 \
      --initial 4 --eta 2 --base-rounds 40 --full-rounds 80 --eval-seeds 1 \
      --ga-generations 1 --ga-population 2 \
      --engine rounds --recorder summary --cache-dir $WORK/cache"

echo "==> tune (2 scenarios, <=16 evals, cold cache)"
python -m repro.cli tune $TUNE --registry "$WORK/reg-a.json" | tee "$WORK/tune_a.out"
grep -q "registry written" "$WORK/tune_a.out"
grep -Eq "^(1[0-6]|[1-9]) evals," "$WORK/tune_a.out"

echo "==> tune again (pool backend via PPLB_WORKERS=2, zero fresh executions)"
PPLB_WORKERS=2 python -m repro.cli tune $TUNE --registry "$WORK/reg-b.json" \
    | tee "$WORK/tune_b.out"
grep -q ": 0 executed," "$WORK/tune_b.out"
cmp "$WORK/reg-a.json" "$WORK/reg-b.json"
echo "    registries byte-identical (serial vs pooled)"

echo "==> registry load/save round trip"
python - "$WORK" <<'EOF'
import sys

from repro.tuning import TunedConfigRegistry

work = sys.argv[1]
registry = TunedConfigRegistry.load(f"{work}/reg-a.json")
assert len(registry) == 2, f"expected 2 tuned scenarios, got {len(registry)}"
registry.save(f"{work}/reg-rt.json")
EOF
cmp "$WORK/reg-a.json" "$WORK/reg-rt.json"
echo "    round trip byte-identical"

# Same rounds/seed/engine/recorder/cache as the tune: the tuned and
# default PPLB cells replay straight from the tuning evaluations.
BOARD="--scenarios mesh-hotspot torus-hotspot --engines rounds \
       --seeds 1 --rounds 80 --recorder summary \
       --registry $WORK/reg-a.json --cache-dir $WORK/cache"

echo "==> leaderboard (tuned + default + 3 baselines)"
python -m repro.cli leaderboard $BOARD --output "$WORK/board-a.json" \
    | tee "$WORK/board_a.out"
grep -q "pplb-tuned" "$WORK/board_a.out"
grep -q "tuned vs default" "$WORK/board_a.out"

echo "==> leaderboard again (byte-identical JSON)"
python -m repro.cli leaderboard $BOARD --output "$WORK/board-b.json" > /dev/null
cmp "$WORK/board-a.json" "$WORK/board-b.json"

cp "$WORK/board-a.json" "$OUT"
echo "==> tune-smoke OK (leaderboard JSON at $OUT)"
