#!/usr/bin/env bash
# CI gate for the String Figure reproduction workspace.
#
#   ./ci.sh          # fmt + clippy + rustdoc + build + tests + smokes
#                    # + one seed-1 pass of the repository benchmark
#   ./ci.sh --quick  # skip the release build, the smokes and the benchmark pass
#
# Every step must pass; the script stops at the first failure.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Neither the build nor clippy checks intra-doc links; a deleted item can
# leave a doc comment pointing at nothing.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "${1:-}" != "--quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
    # The routing store's offset arithmetic and the allocation-free kernel
    # pin, in the optimised profile the benchmark measures.
    echo "==> cargo test --release -q -p sf-routing -p sf-simcore"
    cargo test --release -q -p sf-routing -p sf-simcore
fi

echo "==> cargo test -q"
cargo test -q

# The repository benchmark (benchmark/, a workspace of its own) builds
# against the crates' public APIs through path dependencies. Its tests must
# pass, and neither the build nor anything above may rewrite its files —
# including its committed Cargo.lock.
echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
cargo test --offline --manifest-path benchmark/Cargo.toml
git diff --exit-code -- benchmark/ BENCHMARK.json

if [[ "${1:-}" != "--quick" ]]; then
    sfbench=./target/release/sfbench

    # Smoke the full stack through the unified CLI on a 2-worker sweep pool.
    # The run's artifact must be byte-identical to the serial run — that is
    # the determinism contract of sf-harness.
    echo "==> sfbench run fig10 --quick smoke (1 vs 2 sweep workers)"
    serial_csv="$(mktemp)"
    parallel_csv="$(mktemp)"
    SF_HARNESS_THREADS=1 \
        "$sfbench" run fig10 --quick --no-resume --csv "$serial_csv" \
        --telemetry "$serial_csv.telemetry.bin" --telemetry-every 32 \
        --metrics "$serial_csv.metrics.json" >/dev/null
    # The parallel run also exercises the observability sinks: tracing,
    # metrics, and the telemetry stream must stay strictly out-of-band
    # (identical CSV bytes), and the stream itself must be bit-identical
    # to the serial run's.
    SF_HARNESS_THREADS=2 \
        "$sfbench" run fig10 --quick --no-resume --csv "$parallel_csv" \
        --telemetry "$parallel_csv.telemetry.bin" --telemetry-every 32 \
        --trace "$parallel_csv.trace.jsonl" --metrics "$parallel_csv.metrics.json" >/dev/null
    cmp "$serial_csv" "$parallel_csv"
    # The pooled kernel must still hit the committed golden bytes — not just
    # agree with itself across worker counts.
    cmp "$serial_csv" crates/bench/tests/golden/fig10_saturation.quick.csv
    cmp "$serial_csv.telemetry.bin" "$parallel_csv.telemetry.bin"
    head -c 15 "$parallel_csv.telemetry.bin" | grep -q 'sf-telemetry/v1'
    test -s "$parallel_csv.trace.jsonl"
    grep -q '"schema": "sf-metrics/v1"' "$parallel_csv.metrics.json"
    grep -q '"sim.delivered"' "$parallel_csv.metrics.json"
    grep -q '"sim.telemetry_samples"' "$parallel_csv.metrics.json"
    # A telemetry-off run must reproduce the same golden CSV: recording is
    # observability, never simulation input.
    off_csv="$(mktemp)"
    SF_HARNESS_THREADS=2 \
        "$sfbench" run fig10 --quick --no-resume --csv "$off_csv" >/dev/null
    cmp "$serial_csv" "$off_csv"
    rm -f "$off_csv"
    echo "==> smoke artifacts byte-identical (telemetry on/off, 1 vs 2 workers)"

    # Analyzer smoke: sfbench report over the artifacts the smoke just
    # produced must exit 0 and emit a markdown document with every section.
    echo "==> sfbench report smoke (span tree + heatmap + diff)"
    report_md="$(mktemp)"
    "$sfbench" report \
        --trace "$parallel_csv.trace.jsonl" \
        --telemetry "$parallel_csv.telemetry.bin" \
        --heatmap-csv "$report_md.heatmap.csv" \
        --diff "$serial_csv.metrics.json" "$parallel_csv.metrics.json" \
        --out "$report_md" --quiet
    test -s "$report_md"
    grep -q '^## Span tree' "$report_md"
    grep -q '^## Congestion heatmap' "$report_md"
    grep -q '^## Metric diff' "$report_md"
    grep -q '^router,mean_queue,max_queue,stalls$' "$report_md.heatmap.csv"
    rm -f "$report_md" "$report_md.heatmap.csv"
    rm -f "$serial_csv" "$parallel_csv" "$parallel_csv.trace.jsonl" \
        "$serial_csv.metrics.json" "$parallel_csv.metrics.json" \
        "$serial_csv.telemetry.bin" "$parallel_csv.telemetry.bin"
    echo "==> report sections present and heatmap CSV exported"

    # Checkpoint/resume smoke: start a serial run, kill -9 it after the
    # journal has flushed at least one completed job, rerun the same command
    # on two workers (which resumes from the journal), and demand bytes
    # identical to a clean run and to the committed golden.
    echo "==> checkpoint/resume smoke (kill -9 after first journal flush, resume on 2 workers)"
    resume_csv="$(mktemp)"
    clean_csv="$(mktemp)"
    rm -f "$resume_csv.journal"
    SF_HARNESS_THREADS=1 "$sfbench" run fig10 --quick --csv "$resume_csv" >/dev/null 2>&1 &
    run_pid=$!
    for _ in $(seq 1 1500); do
        if [[ -f "$resume_csv.journal" ]] \
            && (( $(wc -l < "$resume_csv.journal") >= 2 )); then
            break
        fi
        sleep 0.01
    done
    kill -9 "$run_pid" 2>/dev/null || true
    wait "$run_pid" 2>/dev/null || true
    if [[ ! -f "$resume_csv.journal" ]]; then
        echo "    note: run finished before the kill; resume path not exercised this time"
    fi
    SF_HARNESS_THREADS=2 "$sfbench" run fig10 --quick --csv "$resume_csv" >/dev/null
    "$sfbench" run fig10 --quick --no-resume --csv "$clean_csv" >/dev/null
    cmp "$resume_csv" "$clean_csv"
    cmp "$resume_csv" crates/bench/tests/golden/fig10_saturation.quick.csv
    rm -f "$resume_csv" "$clean_csv" "$resume_csv.journal"
    echo "==> resumed artifact byte-identical to a clean run"

    # Extended-scenario smoke: the fault-injection study must uphold the
    # same determinism contract — a 2-worker run of a faulty network
    # produces bytes identical to the serial run and to the committed
    # golden, and so does its telemetry stream, recorded on the fault path.
    echo "==> sfbench run fault_resilience --quick smoke (1 vs 2 sweep workers, telemetry on)"
    fault_serial_csv="$(mktemp)"
    fault_parallel_csv="$(mktemp)"
    SF_HARNESS_THREADS=1 \
        "$sfbench" run fault_resilience --quick --no-resume --csv "$fault_serial_csv" \
        --telemetry "$fault_serial_csv.telemetry.bin" >/dev/null
    SF_HARNESS_THREADS=2 \
        "$sfbench" run fault_resilience --quick --no-resume --csv "$fault_parallel_csv" \
        --telemetry "$fault_parallel_csv.telemetry.bin" >/dev/null
    cmp "$fault_serial_csv" "$fault_parallel_csv"
    cmp "$fault_serial_csv" crates/bench/tests/golden/fault_resilience.quick.csv
    cmp "$fault_serial_csv.telemetry.bin" "$fault_parallel_csv.telemetry.bin"
    head -c 15 "$fault_serial_csv.telemetry.bin" | grep -q 'sf-telemetry/v1'
    rm -f "$fault_serial_csv" "$fault_parallel_csv" \
        "$fault_serial_csv.telemetry.bin" "$fault_parallel_csv.telemetry.bin"
    echo "==> fault-scenario artifacts and telemetry streams byte-identical"

    # Every example runs end to end; `cargo test` only compiles them.
    # Elasticity end to end: the power_management example gates a quarter
    # of a 324-node network through the power manager (each event resyncs
    # routing), simulates the down-scaled network, ungates every node, and
    # exits non-zero unless check_invariants holds, which compares the
    # resynced routing state with a fresh build.
    for example in quickstart capacity_expansion datacenter_workloads power_management; do
        echo "==> example $example"
        cargo run --release --offline --quiet --example "$example" >/dev/null
    done

    # Paper-scale correctness: one seed-1 pass of the repository benchmark,
    # with BENCHMARK.json's command. It runs one repetition per workload and
    # checks the 1296-node paper_uniform, paper_memory and elastic_gating
    # digests against benchmark/expected.json and fig10_sweep's CSV against
    # the fig10 golden. Speed is measured by paired runs under
    # `sf-benchmark compare` (benchmark/README.md), not here.
    echo "==> repository benchmark, seed 1 (1296-node digests + fig10 golden)"
    bench_out="$(mktemp)"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed 1 --seconds 0 --trace 0 >"$bench_out"
    tail -n 1 "$bench_out" | grep -q '^{"correct": true'
    rm -f "$bench_out"
    git diff --exit-code -- benchmark/ BENCHMARK.json
fi

# Information, not a gate: the number of Rust lines outside benchmark/,
# which ROADMAP.md's net state tracks.
rust_lines="$(find . \( -path ./target -o -path ./benchmark \) -prune -o -name '*.rs' -print0 \
    | xargs -0 cat | wc -l)"
echo "==> Rust lines outside benchmark/: $rust_lines"

echo "==> CI green"
