#!/bin/sh
# One perfbench correctness check: a one-second pass of a workload whose
# every spec's metric digest must match perfbench/reference.json.
#
# Usage: scripts/perfbench_check.sh WORKLOAD TRACE
#        WORKLOAD is grid-cold, large-n-cold or warm-replay; TRACE is 0
#        or 1 (1 adds the per-layer split and writes the Chrome trace
#        under .perfbench/).
#
# Writes perfbench-<name>[-trace].out in the repository root (<name> is
# the workload, large-n-cold shortened to large-n), prints it, and exits
# 1 unless the run succeeded and its last line, the result JSON, says
# "correct": true.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 WORKLOAD TRACE" >&2
    exit 2
fi
WORKLOAD=$1
TRACE=$2

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

case "$WORKLOAD" in
    large-n-cold) OUT=perfbench-large-n ;;
    *) OUT="perfbench-$WORKLOAD" ;;
esac
if [ "$TRACE" = 1 ]; then
    OUT="$OUT-trace"
fi
OUT="$OUT.out"

status=0
python3 perfbench/run.py --workload "$WORKLOAD" --seconds 1 --trace "$TRACE" \
    > "$OUT" || status=$?
cat "$OUT"
if [ "$status" -ne 0 ]; then
    echo "perfbench run failed (exit $status)" >&2
    exit 1
fi
tail -n 1 "$OUT" \
    | python3 -c "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] is True else 1)"
