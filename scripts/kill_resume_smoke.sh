#!/usr/bin/env bash
# Kill-and-resume smoke: SIGKILL a checkpointed sweep mid-run, resume it,
# and require the resumed report to be byte-identical (timing lines aside)
# to an uninterrupted single-worker run.  Exercises the crash-safety
# guarantee end to end: journal atomicity, torn-line replay, and the
# workers=1 == workers=N == fresh == resumed determinism contract.
#
# Usage: scripts/kill_resume_smoke.sh [workdir]
set -euo pipefail

WORKDIR="${1:-$(mktemp -d)}"
mkdir -p "$WORKDIR"
CKPT="$WORKDIR/ckpt"
ARGS=(fig4 --scale smoke --trees 12)
KILL_AFTER="${KILL_AFTER:-2}"

export PYTHONPATH="${PYTHONPATH:-src}"

echo "== reference run (workers=1, no checkpointing)"
python -m repro "${ARGS[@]}" --workers 1 --out "$WORKDIR/reference.txt"

echo "== checkpointed run (workers=4), SIGKILL after ${KILL_AFTER}s"
# setsid gives the run its own process group (its id is the run's pid), so
# one kill takes down the pool workers too instead of orphaning them.
setsid python -m repro "${ARGS[@]}" --workers 4 --checkpoint-dir "$CKPT" \
    --out "$WORKDIR/killed.txt" >/dev/null 2>&1 &
VICTIM=$!
sleep "$KILL_AFTER"
if kill -KILL -- -"$VICTIM" 2>/dev/null; then
    echo "   killed process group $VICTIM mid-run"
else
    echo "   run finished before the kill landed (resume is a pure replay)"
fi
wait "$VICTIM" 2>/dev/null || true
# Zombies aside, nothing of the killed run may survive.
for _ in $(seq 50); do
    SURVIVORS=$(ps -e -o pgid=,stat= | awk -v g="$VICTIM" \
        '$1 == g && $2 !~ /^Z/' | wc -l)
    [ "$SURVIVORS" -eq 0 ] && break
    sleep 0.1
done
if [ "$SURVIVORS" -ne 0 ]; then
    echo "FAIL: $SURVIVORS process(es) of the killed run survived" >&2
    exit 1
fi

echo "== resumed run (workers=4, --resume)"
python -m repro "${ARGS[@]}" --workers 4 --checkpoint-dir "$CKPT" \
    --resume --out "$WORKDIR/resumed.txt"

# The reports embed wall-clock timing lines; strip them before diffing.
strip_timing() { sed -E 's/completed in [0-9.]+s/completed/' "$1"; }

if diff <(strip_timing "$WORKDIR/reference.txt") \
        <(strip_timing "$WORKDIR/resumed.txt"); then
    echo "PASS: resumed run is identical to the uninterrupted run"
else
    echo "FAIL: resumed run diverged from the uninterrupted run" >&2
    exit 1
fi
