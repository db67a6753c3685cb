#!/usr/bin/env bash
# CI gate for the String Figure reproduction workspace.
#
#   ./ci.sh          # fmt + clippy + rustdoc + build + tests + smokes
#   ./ci.sh --quick  # skip the release build and the smokes (fastest signal)
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

    # Smoke the full stack through the unified CLI with BOTH parallelism
    # layers forced on: a 2-worker sweep pool around 2-shard cycle-level
    # simulations. The run's artifact must be byte-identical to the fully
    # serial run — that is the determinism contract of sf-harness and
    # sf-simcore.
    echo "==> sfbench run fig10 --quick smoke (2 sweep workers x 2 sim shards)"
    serial_csv="$(mktemp)"
    sharded_csv="$(mktemp)"
    SF_HARNESS_THREADS=1 SF_SIM_SHARDS=1 \
        "$sfbench" run fig10 --quick --no-resume --csv "$serial_csv" \
        --telemetry "$serial_csv.telemetry.bin" --telemetry-every 32 \
        --metrics "$serial_csv.metrics.json" >/dev/null
    # The sharded run also exercises the observability sinks: tracing,
    # metrics, and the telemetry stream must stay strictly out-of-band
    # (identical CSV bytes), and the stream itself must be bit-identical
    # to the serial run's.
    SF_HARNESS_THREADS=2 SF_SIM_SHARDS=2 \
        "$sfbench" run fig10 --quick --no-resume --csv "$sharded_csv" \
        --telemetry "$sharded_csv.telemetry.bin" --telemetry-every 32 \
        --trace "$sharded_csv.trace.jsonl" --metrics "$sharded_csv.metrics.json" >/dev/null
    cmp "$serial_csv" "$sharded_csv"
    # The pooled kernel must still hit the committed golden bytes — not just
    # agree with itself across worker/shard layouts.
    cmp "$serial_csv" crates/bench/tests/golden/fig10_saturation.quick.csv
    cmp "$serial_csv.telemetry.bin" "$sharded_csv.telemetry.bin"
    head -c 15 "$sharded_csv.telemetry.bin" | grep -q 'sf-telemetry/v1'
    test -s "$sharded_csv.trace.jsonl"
    grep -q '"schema": "sf-metrics/v1"' "$sharded_csv.metrics.json"
    grep -q '"sim.delivered"' "$sharded_csv.metrics.json"
    grep -q '"sim.telemetry_samples"' "$sharded_csv.metrics.json"
    # A telemetry-off run must reproduce the same golden CSV: recording is
    # observability, never simulation input.
    off_csv="$(mktemp)"
    SF_HARNESS_THREADS=2 SF_SIM_SHARDS=2 \
        "$sfbench" run fig10 --quick --no-resume --csv "$off_csv" >/dev/null
    cmp "$serial_csv" "$off_csv"
    rm -f "$off_csv"
    echo "==> smoke artifacts byte-identical (telemetry on/off, serial vs sharded)"

    # Analyzer smoke: sfbench report over the artifacts the smoke just
    # produced must exit 0 and emit a markdown document with every section.
    echo "==> sfbench report smoke (span tree + heatmap + diff + trajectory)"
    report_md="$(mktemp)"
    "$sfbench" report \
        --trace "$sharded_csv.trace.jsonl" \
        --telemetry "$sharded_csv.telemetry.bin" \
        --heatmap-csv "$report_md.heatmap.csv" \
        --diff "$serial_csv.metrics.json" "$sharded_csv.metrics.json" \
        --bench-dir . \
        --out "$report_md" --quiet
    test -s "$report_md"
    grep -q '^## Span tree' "$report_md"
    grep -q '^## Congestion heatmap' "$report_md"
    grep -q '^## Metric diff' "$report_md"
    grep -q '^## Perf trajectory' "$report_md"
    grep -q '^router,mean_queue,max_queue,stalls$' "$report_md.heatmap.csv"
    rm -f "$report_md" "$report_md.heatmap.csv"
    rm -f "$serial_csv" "$sharded_csv" "$sharded_csv.trace.jsonl" \
        "$serial_csv.metrics.json" "$sharded_csv.metrics.json" \
        "$serial_csv.telemetry.bin" "$sharded_csv.telemetry.bin"
    echo "==> report sections present and heatmap CSV exported"

    # Checkpoint/resume smoke: start a run, kill -9 it after the journal has
    # flushed at least one completed job, rerun the same command (which
    # resumes from the journal), and demand bytes identical to a clean run.
    echo "==> checkpoint/resume smoke (kill -9 after first journal flush)"
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
    SF_HARNESS_THREADS=1 "$sfbench" run fig10 --quick --csv "$resume_csv" >/dev/null
    "$sfbench" run fig10 --quick --no-resume --csv "$clean_csv" >/dev/null
    cmp "$resume_csv" "$clean_csv"
    rm -f "$resume_csv" "$clean_csv" "$resume_csv.journal"
    echo "==> resumed artifact byte-identical to a clean run"

    # Streaming mega-sweep smoke: the bounded-memory pipeline end to end.
    # A serial uninterrupted run is the reference; a 2-worker run with a
    # tiny --max-journal-bytes (forcing >= 1 journal compaction), killed
    # mid-sweep and resumed with the same command, must emit byte-identical
    # rows. Peak RSS comes from the run's own in-process probe (VmHWM from
    # /proc/self/status) — exact, and immune to the 0 kB race the external
    # /usr/bin/time and polling samplers suffered.
    echo "==> sfbench run megasweep --quick streaming smoke (compaction + kill + resume)"
    mega_serial_csv="$(mktemp)"
    mega_resume_csv="$(mktemp)"
    rm -f "$mega_resume_csv.journal"
    SF_HARNESS_THREADS=1 \
        "$sfbench" run megasweep --quick --no-resume --csv "$mega_serial_csv" \
        >/dev/null 2>"$mega_serial_csv.log"
    grep "peak RSS" "$mega_serial_csv.log" \
        | sed 's/^#[[:space:]]*/    megasweep --quick /' || true
    rm -f "$mega_serial_csv.log"
    SF_HARNESS_THREADS=2 "$sfbench" run megasweep --quick \
        --csv "$mega_resume_csv" --max-journal-bytes 256 >/dev/null 2>&1 &
    mega_pid=$!
    for _ in $(seq 1 1500); do
        if [[ -f "$mega_resume_csv.journal" ]] \
            && (( $(wc -l < "$mega_resume_csv.journal") >= 2 )); then
            break
        fi
        sleep 0.01
    done
    kill -9 "$mega_pid" 2>/dev/null || true
    wait "$mega_pid" 2>/dev/null || true
    if [[ ! -f "$mega_resume_csv.journal" ]]; then
        echo "    note: run finished before the kill; resume path not exercised this time"
    fi
    SF_HARNESS_THREADS=2 "$sfbench" run megasweep --quick \
        --csv "$mega_resume_csv" --max-journal-bytes 256 >/dev/null
    cmp "$mega_serial_csv" "$mega_resume_csv"
    rm -f "$mega_serial_csv" "$mega_resume_csv" "$mega_resume_csv.journal"
    echo "==> mega-sweep artifacts byte-identical (serial vs interrupted+compacted+resumed)"

    # Extended-scenario smoke: the fault-injection study must uphold the
    # same determinism contract — a 2-worker x 2-shard run of a faulty
    # network produces bytes identical to the fully serial run.
    echo "==> sfbench run fault_resilience --quick smoke (2 sweep workers x 2 sim shards)"
    fault_serial_csv="$(mktemp)"
    fault_sharded_csv="$(mktemp)"
    SF_HARNESS_THREADS=1 SF_SIM_SHARDS=1 \
        "$sfbench" run fault_resilience --quick --no-resume --csv "$fault_serial_csv" >/dev/null
    SF_HARNESS_THREADS=2 SF_SIM_SHARDS=2 \
        "$sfbench" run fault_resilience --quick --no-resume --csv "$fault_sharded_csv" >/dev/null
    cmp "$fault_serial_csv" "$fault_sharded_csv"
    rm -f "$fault_serial_csv" "$fault_sharded_csv"
    echo "==> fault-scenario artifacts byte-identical"

    # Perf trajectory: record this change's in-process bench snapshot and
    # gate against the newest committed BENCH_<n>.json (wall-clock > +25% on
    # a probe, or peak RSS > +10%, fails the build). The snapshot is labelled
    # BENCH_<n+1>; with no committed snapshot the run only records BENCH_1.
    prev_bench="$(git ls-files 'BENCH_*.json' | sort -V | tail -1)"
    if [[ -n "$prev_bench" ]]; then
        prev_n="${prev_bench#BENCH_}"
        bench_label="BENCH_$(( ${prev_n%.json} + 1 ))"
        echo "==> sfbench bench (perf snapshot $bench_label.json vs $prev_bench)"
        "$sfbench" bench --label "$bench_label" --out "$bench_label.json" --baseline "$prev_bench"
    else
        echo "==> sfbench bench (perf snapshot BENCH_1.json)"
        "$sfbench" bench --label BENCH_1 --out BENCH_1.json
        echo "    no committed BENCH_*.json snapshot; recorded baseline only"
    fi
fi

echo "==> CI green"
