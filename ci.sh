#!/usr/bin/env bash
# Repo CI: formatting, lints, and the tier-1 test suite. There is no
# environment matrix: every execution mode, ingest budget and recorder
# setting the suites cover is swept inside `cargo test` itself
# (`wukong_bench::modes`), and no engine crate may read the environment.
#
#   ./ci.sh                fmt + clippy + env guard + build + tests
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

echo "== engine crates never read the environment (configuration is set in code)"
if grep -rn 'std::env' crates/{rdf,net,store,query,stream,core,obs,baselines,benchdata}/src; then exit 1; fi

echo "== tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
    # One --json smoke run per line: bin | extra args (OUT = the scratch
    # directory) | patterns the report must contain (`;`-separated).
    smokes='table2_latency_single||"schema_version": 8
exp_recovery_drill|--quick|"all_match": 1
exp_worker_scaling|--quick|"all_match": 1;"pool"
exp_incremental|--quick|"all_match": 1;"incremental"
exp_overload|--quick|"all_match": 1;"overload"
exp_adaptive|--quick|"all_match": 1;"plan"
exp_chaos|--quick|"all_pass": 1;"integrity"
exp_trace|--quick --dump OUT/trace_dump.json|"all_pass": 1;"trace";"wall_overhead_ratio"
table6_injection||'
    out="$(mktemp -d)"
    while IFS='|' read -r bin args patterns; do
        echo "== smoke: $bin (tiny scale)"
        # shellcheck disable=SC2086  # the args are a word list
        WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench \
            --bin "$bin" -- ${args//OUT/$out} --json "$out/$bin.json"
        IFS=';' read -ra required <<<"$patterns"
        for pattern in "${required[@]}"; do
            grep -q -- "$pattern" "$out/$bin.json"
        done
        echo "smoke OK: $out/$bin.json"
    done <<<"$smokes"

    # The quarantine dump must load and render through the inspector.
    grep -q '"kind": "trace_dump"' "$out/trace_dump.json"
    cargo run -q --release -p wukong-bench --bin wukong-trace -- "$out/trace_dump.json" \
        > "$out/trace_render.txt"
    grep -q 'trace_dump: trigger quarantine' "$out/trace_render.txt"

    # Table 6 reports injection and indexing as separate columns; the
    # install path times them as two phases, and neither may read zero.
    [[ "$(grep -cE '/(inject|index)_ms_per_batch": ' "$out/table6_injection.json")" -eq 10 ]]
    if grep -E '/(inject|index)_ms_per_batch": 0,?$' "$out/table6_injection.json"; then
        echo "Table 6: a column reads zero"
        exit 1
    fi

    # The value-layout micro benches, once each under the criterion shim,
    # so they keep compiling *and* running.
    echo "== micro benches: value_cell/*"
    cargo bench -q --bench micro -p wukong-bench -- value_cell | tee "$out/value_cell.txt"
    [[ "$(grep -c '^bench value_cell/' "$out/value_cell.txt")" -eq 3 ]]

    # The benchmark crate builds against the workspace's public API and
    # checks seed 42's result digests: an API break or a changed result
    # shows here, before the benchmark driver finds it.
    for workload in $workloads; do
        echo "== bench_suite smoke: $workload"
        bench_run "$workload" --smoke
    done
fi

echo "CI green"
