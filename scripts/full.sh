#!/usr/bin/env bash
# Full run of the repository benchmark: every perfbench workload for the
# 30-second measured phase BENCHMARK.json declares, at the tuning seed 1
# and the held-out seed 7919 (see perfbench/NOTES.md). Expect about ten
# minutes on a 2-core machine.
#
# Each run prints its metrics and a final JSON line. Exits non-zero if the
# build fails or any workload reports a failed op (perfbench exits 1 then).
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
for seed in 1 7919; do
    for workload in engine-fptras engine-fpras serve-http; do
        echo "== perfbench --workload $workload --seed $seed --seconds 30"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 30 || status=1
    done
done
exit "$status"
