#!/bin/sh
# Model-checker exploration golden.
#
# Runs CI's model-check sweep (the conflict, writeback and pingpong
# workloads over every protocol and sharer format) and the two 3-core
# late-data race witnesses, and diffs their stdout against the
# committed golden file. The lines count executions, choice points,
# pruned and reduced branches and late-data drops: a change to any of
# them means the explored state space moved (e.g. a state-hash fold
# that dropped a field and now over-prunes).
#
# Usage: model_check_golden.sh MODEL_CHECK_BINARY GOLDEN_FILE
set -e
mc=$1
golden=$2
out=${TMPDIR:-/tmp}/model_check_golden.$$
trap 'rm -f "$out"' EXIT
{
    for wl in conflict writeback pingpong; do
        "$mc" --workload "$wl"
    done
    "$mc" --protocol broadcast --cores 3 --workload race
    "$mc" --protocol multicast --cores 3 --workload wbrace
} > "$out"
diff -u "$golden" "$out"
