#!/usr/bin/env bash
# Kick-the-tires run of the repository benchmark (a few minutes): every
# perfbench workload at seed 1 with a 5-second measured phase. The engine
# workloads still finish their second whole pass over the op list, so they
# take longer than 5 s. The command is the one BENCHMARK.json declares.
#
# Each run prints its metrics and a final JSON line. Exits non-zero if the
# build fails or any workload reports a failed op (perfbench exits 1 then).
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
for workload in engine-fptras engine-fpras serve-http; do
    echo "== perfbench --workload $workload --seed 1 --seconds 5"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 5 || status=1
done
exit "$status"
