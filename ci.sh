#!/usr/bin/env bash
# Repo CI: formatting, lints, and the tier-1 test suite. There is no
# environment matrix: every execution mode, ingest budget and recorder
# setting the suites cover is swept inside `cargo test` itself
# (`wukong_bench::modes`), and no engine crate may read the environment.
#
#   ./ci.sh                fmt + clippy + env guards + build + tests (tier-1
#                          runs every experiment at tiny scale:
#                          tests/experiments_smoke.rs)
#   ./ci.sh --quick        the above plus what only a release build can check
#                          of the experiments, the value_cell micro benches
#                          and a traced smoke run of every bench_suite
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

echo "== crates/bench reads the environment in main.rs only and links one binary"
if grep -rn 'std::env' crates/bench/src | grep -v '^crates/bench/src/main.rs:'; then exit 1; fi
[[ "$(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml)" -eq 1 ]]

echo "== one step loop: only wukong-query's executor finalizes a result (fork-join passes it a Fork)"
if grep -rn 'finalize(' crates/{core,baselines}/src; then exit 1; fi

echo "== one step kernel: delta maintenance runs execute_step_into over death-tagged rows"
if grep -rnE 'execute_step_tagged|TaggedTable|passes_filters' crates/query/src; then exit 1; fi

echo "== the simulated fabric decides delivery from the seeded fault state and never waits on a real clock"
if grep -rnE 'crossbeam|mpsc|recv_timeout|Endpoint|Envelope' crates/{net,core}/src; then exit 1; fi

echo "== one install stage, one injector call, one drill; no dead-read path"
if grep -rnwE 'insert_slice|insert_batch|apply_split|apply_merging|try_charge_read|NodeDown|drill_verified' crates/*/src; then exit 1; fi

echo "== one install stage: only WukongS::install_batch calls install_sub_batch( or apply_index_updates("
# Prints every call outside the body of `fn install_batch` (which ends at
# the first line that closes a method: four spaces and a brace).
if awk 'FNR == 1 { inside = 0 }
        /fn install_batch\(/ { inside = 1 }
        inside && /^    }$/ { inside = 0; next }
        !inside && /(install_sub_batch|apply_index_updates)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }' $(find crates/core/src -name '*.rs'); then exit 1; fi

echo "== one write path: the ingest pipeline never reads the fault plan (pieces are cut under faults too)"
if grep -nE '\.fault_plan\b' crates/core/src/engine/ingest.rs; then exit 1; fi

echo "== the docs cite live code: path.rs:NN, \`Type::item\` and open ROADMAP items"
# Prints every stale citation, then fails if there was one.
# (1) Each `path.rs:NN` or `path.rs:NN-MM` in DESIGN.md, README.md and
# ROADMAP.md names a file whose path ends in `path.rs` and that has at
# least NN (MM) lines.
# (2) Each identifier of a backticked `A::b` or `A::{b, c}` in DESIGN.md
# and README.md occurs in the code under crates/ or tests/ (comment lines
# aside) or names a module file or directory there; `wukong-store::base`
# reads as `wukong_store::base`, `tests/props.rs::name` as `props::name`.
# (3) Each "ROADMAP item N" (or "Nx") in DESIGN.md, README.md and the
# comments under crates/, joined across line breaks, names an item of
# ROADMAP.md's open list (with a letter, one that has an "(x)" part).
docs_check() {
    local stale=0 cite path need f ok id ref
    local rs_files words open_items
    rs_files="$(find . \( -name target -o -name .git \) -prune -o -name '*.rs' -print | sed 's|^\./||')"
    for cite in $(grep -ohE '[A-Za-z0-9_./-]+\.rs:[0-9]+(-[0-9]+)?' DESIGN.md README.md ROADMAP.md | sort -u); do
        path="${cite%%:*}"
        need="${cite##*[:-]}"
        ok=0
        for f in $(grep -E "(^|/)${path//./\\.}\$" <<<"$rs_files"); do
            [[ "$(wc -l <"$f")" -ge "$need" ]] && ok=1
        done
        [[ $ok -eq 1 ]] || { echo "no such file or line: $cite"; stale=1; }
    done

    words="$(mktemp)"
    {
        find crates tests -name '*.rs' -exec grep -hv '^[[:space:]]*//' {} + |
            grep -oE '[A-Za-z_][A-Za-z0-9_]*'
        find crates tests -name target -prune -o -print | sed 's|.*/||; s|\.rs$||'
    } | sort -u >"$words"
    for id in $(grep -ohE '`[^`]+`' DESIGN.md README.md | sed 's/\.rs::/::/g' | tr '-' '_' |
        grep -oE '[A-Za-z_][A-Za-z0-9_]*(::([A-Za-z_][A-Za-z0-9_]*|\{[^}]*\}))+' |
        tr -s ':{}, ' '\n' | sort -u); do
        grep -qxF "$id" "$words" || { echo "no such identifier under crates/: $id"; stale=1; }
    done
    rm -f "$words"

    open_items="$(awk '/^## Open items/ { on = 1; next } /^## / || /^\*\*Parked/ { on = 0 }
        on && match($0, /^[0-9]+\. /) { item = substr($0, 1, RLENGTH - 2); print item }
        on && item != "" { s = $0
            while (match(s, /\([a-z]\)/)) { print item substr(s, RSTART + 1, 1); s = substr(s, RSTART + RLENGTH) } }' \
        ROADMAP.md | sort -u)"
    for ref in $(for f in DESIGN.md README.md $(find crates -name '*.rs'); do
        awk '{ sub(/^[[:space:]]*(\/\/[\/!]?)?[[:space:]]*/, ""); printf "%s ", $0 }' "$f" |
            grep -oE 'ROADMAP items? [0-9]+[a-z]?' | awk '{ print $3 }'
    done | sort -u); do
        grep -qxF "$ref" <<<"$open_items" || { echo "no open ROADMAP item $ref"; stale=1; }
    done
    return "$stale"
}
docs_check

echo "== tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
    # The experiments' gates on measured time hold in an optimised build
    # only (the tier-1 smoke test reports them), and the quarantine dump
    # must load and render through the inspector.
    out="$(mktemp -d)"
    bench() { WUKONG_SCALE=tiny cargo run -q --release -p wukong-bench -- "$@"; }
    echo "== release-only experiment gates: exp_worker_scaling, exp_trace (tiny scale)"
    bench exp_worker_scaling --quick
    bench exp_trace --quick --dump "$out/trace_dump.json"
    bench trace "$out/trace_dump.json" >"$out/trace_render.txt"
    grep -q 'trace_dump: trigger quarantine' "$out/trace_render.txt"

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
