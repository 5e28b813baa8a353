#!/usr/bin/env bash
# Unit tests plus smoke runs (1 pass, 2 s of stream) of every workload,
# untraced and traced. Run from anywhere; builds offline.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmarks/Cargo.toml
cargo test --release --offline --manifest-path "$manifest"

for workload in ingest_firehose standing_fanout oneshot_under_ingest cluster8_mix; do
    # Seed 42 checks the committed digests, seed 3 the relational oracle.
    for seed in 42 3; do
        cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            run --workload "$workload" --seed "$seed" --smoke | tail -n 1
    done
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        run --workload "$workload" --smoke --trace 1 | tail -n 1
done
echo "bench_suite ci: ok"
