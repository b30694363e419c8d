#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced then traced, and prints each
# run's metric table (stderr) and result lines (stdout).
#
# usage: perfbench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-20}
for workload in addr-locks hamsterdb-mixed kyoto-cache; do
    for trace in 0 1; do
        echo "== $workload trace=$trace seed=$seed"
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
