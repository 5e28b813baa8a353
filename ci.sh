#!/usr/bin/env bash
# Repo CI: formatting, lints, and the tier-1 test suite.
#
#   ./ci.sh                fmt + clippy + build + tests
#   ./ci.sh --quick        the above plus bench --json smoke runs at tiny
#                          scale and a traced smoke run of every bench_suite
#                          workload
#   ./ci.sh --bench-gates  only the four full traced bench_suite runs (about a
#                          minute each); every check of every run must pass
set -euo pipefail
cd "$(dirname "$0")"

workloads="ingest_firehose standing_fanout oneshot_under_ingest cluster8_mix"

# One traced bench_suite run of workload $1 (further arguments are passed
# on): fails unless the result line says correct and the workload still
# stresses the layers it exists for — a smoke run skips that last check, a
# full run does not. Prints every check (the `stresses_its_layers` line
# carries the measured share and its floor) and the traced pass's
# round-loop shares per engine call, so the margin to each floor is in
# the log.
bench_run() {
    local workload="$1" log
    shift
    log="$(mktemp)"
    cargo run --release --offline --quiet --manifest-path benchmarks/Cargo.toml -- \
        run --workload "$workload" --trace 1 "$@" | tee "$log" |
        grep -E '^check |^traced pass: .* round loop '
    tail -n 1 "$log" | grep -q '"correct":true'
    grep -q '^check stresses_its_layers: ok' "$log"
    rm -f "$log"
}

if [[ "${1:-}" == "--bench-gates" ]]; then
    for workload in $workloads; do
        echo "== bench gates: $workload"
        bench_run "$workload"
    done
    echo "bench gates green"
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

# Execution-mode matrix: the equivalence suites must pass at both the
# serial baseline and a wide pool, with delta maintenance off and on and
# adaptive re-planning off and on — incremental and adaptive firings are
# required to be byte-identical to static recompute at every point.
for workers in 1 4; do
    for inc in 0 1; do
        for adaptive in 0 1; do
            echo "== matrix: WUKONG_WORKERS=$workers WUKONG_INCREMENTAL=$inc WUKONG_ADAPTIVE=$adaptive"
            WUKONG_WORKERS=$workers WUKONG_INCREMENTAL=$inc WUKONG_ADAPTIVE=$adaptive \
                cargo test -q -p wukong-bench \
                --test differential --test integration_parallel \
                --test props_incremental --test props_planner --test regression_replan
        done
    done
done

# Overload matrix: the bounded-ingest path must hold its invariants with
# the budget injected from the environment, and the suites that talk to
# a possibly-shedding engine must stay green under admission control.
for budget in 64 1024; do
    echo "== matrix: WUKONG_INGEST_BUDGET=$budget"
    WUKONG_INGEST_BUDGET=$budget cargo test -q -p wukong-bench \
        --test integration_stress --test props_overload --test integration_obs
done

# Trace matrix: the flight recorder is always-on by default and must be
# observationally transparent — the quick equivalence suites pass with
# recording forced on and forced off (`WUKONG_TRACE=0`).
for trace in 0 1; do
    echo "== matrix: WUKONG_TRACE=$trace"
    WUKONG_TRACE=$trace cargo test -q -p wukong-bench \
        --test integration_trace --test integration_obs --test differential \
        --test integration_parallel
done

if [[ "${1:-}" == "--quick" ]]; then
    echo "== bench JSON smoke (tiny scale)"
    out="$(mktemp -d)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin table2_latency_single -- --json "$out/table2.json"
    grep -q '"schema_version": 8' "$out/table2.json"
    echo "smoke OK: $out/table2.json"

    echo "== recovery drill smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_recovery_drill -- --quick --json "$out/drill.json"
    grep -q '"all_match": 1' "$out/drill.json"
    echo "drill OK: $out/drill.json"

    echo "== worker scaling smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_worker_scaling -- --quick --json "$out/scaling.json"
    grep -q '"all_match": 1' "$out/scaling.json"
    grep -q '"pool"' "$out/scaling.json"
    echo "scaling OK: $out/scaling.json"

    echo "== incremental overlap smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_incremental -- --quick --json "$out/incremental.json"
    grep -q '"all_match": 1' "$out/incremental.json"
    grep -q '"incremental"' "$out/incremental.json"
    echo "incremental OK: $out/incremental.json"

    echo "== overload drill smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_overload -- --quick --json "$out/overload.json"
    grep -q '"all_match": 1' "$out/overload.json"
    grep -q '"overload"' "$out/overload.json"
    echo "overload OK: $out/overload.json"

    echo "== adaptive re-planning smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_adaptive -- --quick --json "$out/adaptive.json"
    grep -q '"all_match": 1' "$out/adaptive.json"
    grep -q '"plan"' "$out/adaptive.json"
    echo "adaptive OK: $out/adaptive.json"

    echo "== composed-fault chaos smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_chaos -- --quick --json "$out/chaos.json"
    grep -q '"all_pass": 1' "$out/chaos.json"
    grep -q '"integrity"' "$out/chaos.json"
    echo "chaos OK: $out/chaos.json"

    echo "== trace fidelity smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin exp_trace -- --quick --json "$out/trace.json" --dump "$out/trace_dump.json"
    grep -q '"all_pass": 1' "$out/trace.json"
    grep -q '"trace"' "$out/trace.json"
    grep -q '"kind": "trace_dump"' "$out/trace_dump.json"
    cargo run -q --release -p wukong-bench --bin wukong-trace -- "$out/trace_dump.json" \
        > "$out/trace_render.txt"
    grep -q 'trace_dump: trigger quarantine' "$out/trace_render.txt"
    echo "trace OK: $out/trace.json"

    # Table 6 reports injection and indexing as separate columns; the
    # install path times them as two phases, and neither may read zero.
    echo "== Table 6 injection/indexing split smoke (tiny scale)"
    WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
        --bin table6_injection -- --json "$out/table6.json"
    [[ "$(grep -cE '/(inject|index)_ms_per_batch": ' "$out/table6.json")" -eq 10 ]]
    if grep -E '/(inject|index)_ms_per_batch": 0,?$' "$out/table6.json"; then
        echo "Table 6: a column reads zero"
        exit 1
    fi
    echo "table6 OK: $out/table6.json"

    # The benchmark crate builds against the workspace's public API and
    # checks seed 42's result digests: an API break or a changed result
    # shows here, before the benchmark driver finds it.
    for workload in $workloads; do
        echo "== bench_suite smoke: $workload"
        bench_run "$workload" --smoke
    done
fi

echo "CI green"
