#!/usr/bin/env bash
# Pre-PR gate: run everything the reviewer will run, in the order that
# fails fastest. All steps must pass before a branch is pushed.
#
#   ./ci.sh                        # full gate (stage order below)
#   BENCH_GATE=selfcheck ./ci.sh   # perf gate against a fresh same-host pin
#   BENCH_GATE=update ./ci.sh      # re-pin results/baseline (after review)
#   BENCH_GATE=off ./ci.sh         # correctness only
#   SAN_GATE=off ./ci.sh           # skip the sanitizer stage
#
# Stage order (fail-fastest first):
#   0. non-test line count          printed for information, never fails
#   1. cargo fmt --check            cheapest, catches unformatted diffs
#   2. cargo clippy -D warnings     compiler-adjacent static analysis,
#                                   once more with fault-inject on
#   3. bpmax-lint                   repo-specific rules (panic-free library
#                                   code, justified atomic orderings,
#                                   no timing in solver hot loops)
#   4. workspace tests              includes the lint self-test (mutant
#                                   fixtures flagged + clean tree passes)
#   4b. bpmax lib tests, release    overflow checks off, as users build it
#   4c. perfbench build + smoke     the benchmark of record (a workspace of
#                                   its own) builds against this tree, and
#                                   its three workloads answer correctly
#   5. fault-injection suite        deterministic failure-path proofs
#   5b. split-wave repeats          the split batch and wavefront
#                                   tests, the run tests, the lane
#                                   group tests and the pool tests,
#                                   50 runs each (thread
#                                   interleavings differ run to run; the
#                                   threads share one pool of table
#                                   buffers and one wave's lane pools,
#                                   and each wavefront worker owns a
#                                   lane scratch)
#   6. crash-recovery suite         SIGKILL + resume bit-identity
#   7. serve smoke                  daemon round-trip against the real
#                                   binary: cold solve, warm cache hit,
#                                   over-budget typed reject (exit 2),
#                                   clean shutdown
#   7b. serve overload + drain      the same against a fault-inject build
#                                   held at one slot: typed shed (exit 2),
#                                   retry recovery, drain refusal
#                                   (exit 1), clean exit
#   8. cargo doc -D warnings        rustdoc integrity
#   9. sanitizer (SAN_GATE)         ThreadSanitizer over the concurrency
#                                   models, the batch suite and the
#                                   split-wavefront engine tests —
#                                   nightly-only; auto-skipped with a
#                                   notice when the toolchain lacks it
#                                   (offline containers)
#  10. smoke-bench perf gate        noise-aware wall-clock regression gate
#
# SAN_GATE mirrors BENCH_GATE:
#   auto       run ThreadSanitizer iff the nightly toolchain supports it
#              (default; a skip prints a notice, never fails)
#   require    fail if ThreadSanitizer is unavailable
#   tsan       the same as require (the CI nightly job's spelling)
#   off        skip the sanitizer stage
#
# The perf gate (see README.md "Benchmark telemetry & regression gate")
# runs a small smoke subset of the figure binaries and compares their
# JSON telemetry against results/baseline with noise-aware thresholds
# (max(3x MAD, BENCH_REL_FLOOR)). Modes:
#
#   baseline   compare against the checked-in results/baseline (default;
#              meaningful on the host that pinned it)
#   selfcheck  pin a fresh baseline from a first run, then gate a second
#              run against it — host-independent, used by CI runners
#   update     refresh results/baseline from a fresh run and exit 0
#   off        skip the perf gate
#
# The workspace vendors offline shims for rand/proptest/loom
# (see shims/), so no network access is needed at any step.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_GATE="${BENCH_GATE:-baseline}"
SAN_GATE="${SAN_GATE:-auto}"
BENCH_REL_FLOOR="${BENCH_REL_FLOOR:-0.5}"
BASELINE_DIR=results/baseline

# For information only, never a gate: the non-test line count, by one
# rule (the lines before each file's first `#[cfg(test)]`, over
# crates/*/src/**/*.rs without src/tests/), so that changes which
# simplify the code report their size the same way.
echo "== non-test lines (information only) =="
find crates/*/src -name '*.rs' -not -path '*/src/tests/*' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { lines++ }
    END { print lines + 0 }' {} + | awk '{ sum += $1 } END { print sum " non-test lines in crates/*/src" }'

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings
# The fault registry, the fault-inject branches of main.rs and the
# fault_injection.rs suite only compile with the feature, so the run
# above never sees them.
cargo clippy -p bpmax -p bpmax-cli --all-targets --offline \
    --features bpmax/fault-inject,bpmax-cli/fault-inject -- -D warnings

echo "== bpmax-lint (repo lint engine) =="
cargo run -q -p bpmax-lint --offline -- .

echo "== cargo test (workspace) =="
cargo test --workspace --offline -q

echo "== bpmax lib tests (release) =="
# Every other stage builds with debug overflow checks, which turn
# arithmetic on a bad input into a panic. A release build wraps instead,
# and can accept what the debug build refused (an impossible snapshot
# shape once did), so the library's unit tests run once without them.
cargo test --release -p bpmax --lib --offline -q

echo "== perfbench build + smoke (the benchmark of record) =="
# perfbench is a Cargo workspace of its own, so no stage above builds it:
# a library change that breaks an API it uses would first show up as a
# failed benchmark run. Build it, then run each workload for one second;
# each must exit 0 and report a correct answer. scan-journaled is the only
# workload that runs run_batch, the checkpoint journal and scan_ranked.
# It mounts a tmpfs on its journal directory in a private namespace
# unless that directory is memory-backed already. Only a host that
# refuses the mount (perfbench says "mounting a tmpfs on ...: Operation
# not permitted (os error 1)" or "Permission denied (os error 13)") skips
# the workload, with a notice. Any other error there fails the stage: a
# dangling perfbench/runs/journal symlink, for one, fails inside that
# same message with "File exists (os error 17)".
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
perf_err="$(mktemp)"
for workload in solve-large serve-mixed scan-journaled; do
    if ! out="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 2>"$perf_err")"; then
        if [ "$workload" = scan-journaled ] &&
            grep -Eq 'mounting a tmpfs on .*\(os error (1|13)\)' "$perf_err"; then
            echo "-- perfbench: scan-journaled SKIPPED: the tmpfs mount was refused (perfbench's stderr:)"
            cat "$perf_err"
            continue
        fi
        if [ "$workload" = scan-journaled ] && grep -q 'mounting a tmpfs on' "$perf_err"; then
            echo "ci.sh: scan-journaled could not set up its journal dir perfbench/runs/journal" \
                "($(readlink -f perfbench/runs/journal || echo unresolved)); a dangling symlink there" \
                "needs its target created or the link removed" >&2
        fi
        cat "$perf_err" >&2
        echo "$out" >&2
        echo "ci.sh: perfbench $workload failed" >&2
        exit 1
    fi
    if ! tail -n 1 <<< "$out" | grep -q '^{"correct": true,'; then
        echo "$out" >&2
        echo "ci.sh: perfbench $workload did not report a correct answer" >&2
        exit 1
    fi
    echo "-- perfbench: $workload answered correctly"
done
rm -f "$perf_err"

echo "== fault-injection suite (--features fault-inject) =="
# The deterministic fault harness only compiles under the feature; it
# proves every injected panic/alloc-failure/slow problem maps to the
# right batch outcome and that survivors stay bit-identical.
cargo test -p bpmax --features fault-inject --offline -q

echo "== split-wave repeats (50 runs each) =="
# A split batch wave's threads claim problems in an order that differs
# from run to run, and they share one pool of table buffers, so one pass
# proves little: with the pool top-up removed and the split forced,
# warm_pool_allocates_nothing_on_the_second_wave still passed 161 of
# 200 runs. Build once, then run the split tests
# (batch::tests::split_* and engine::tests::split_*, forced past the
# cutoff: each wavefront worker claims runs of triangles and hands them,
# with its own state, to its caller's closure; the one-problem path
# packs their split points and Phase B lanes into that state, a lane
# scratch, and a scratch two workers shared would corrupt a table on
# only some runs),
# the run tests (engine::tests::runs_*, how a diagonal is cut into runs,
# and kernels::tests::lane_runs_*, Phase B in triangle lanes), the lane
# group tests (batch::tests::lanes_*, which include the planner's
# group-size cases and the four-member f32 floor, and the fault suite's
# lane_group_*, on groups of 8 and 12: the same split workers claim
# whole lane groups and share the wave's lane pools, one per cell),
# the three pool tests and the 16-bit lane tests
# (lanes16_tests::split_* and ::lanes_*: lone solves on forced splits
# and lane groups of 1-16 members in [i16; 8] and [i16; 16] cells, each
# cell checked against the oracle, whose debug build takes ~26 s a run,
# so these run from stage 4b's release build) 50 times each;
# any failure stops the gate. On a disk with slow fsync
# most of the time is the journaling split test's writes.
split_bins="$(cargo test -p bpmax --features fault-inject --offline --no-run \
    --lib --test fault_injection 2>&1)"
SPLIT_LIB="$(sed -n 's/.*Executable unittests src\/lib.rs (\(.*\))$/\1/p' <<< "$split_bins")"
SPLIT_FAULT="$(sed -n 's/.*Executable tests\/fault_injection.rs (\(.*\))$/\1/p' <<< "$split_bins")"
lanes16_bins="$(cargo test --release -p bpmax --offline --no-run --lib 2>&1)"
LANES16_LIB="$(sed -n 's/.*Executable unittests src\/lib.rs (\(.*\))$/\1/p' <<< "$lanes16_bins")"
for run in $(seq 1 50); do
    out="$("$SPLIT_LIB" -q batch::tests::split_ batch::tests::lanes_ engine::tests::split_ \
        engine::tests::runs_ kernels::tests::lane_runs_ \
        batch::tests::warm_pool_allocates_nothing_on_the_second_wave \
        batch::tests::cancelled_token_marks_every_item_cancelled 2>&1)" ||
        { echo "$out" >&2; echo "ci.sh: split-wave repeat $run failed" >&2; exit 1; }
    out="$("$SPLIT_FAULT" -q --exact zero_steady_state_allocation_holds_across_faulted_waves \
        lane_group_panic_fails_only_its_member \
        lane_group_alloc_fault_drops_only_its_member \
        lane_group_slow_member_times_the_group_out_as_a_unit 2>&1)" ||
        { echo "$out" >&2; echo "ci.sh: split-wave repeat $run failed" >&2; exit 1; }
    out="$("$LANES16_LIB" -q lanes16_tests::split_ lanes16_tests::lanes_ 2>&1)" ||
        { echo "$out" >&2; echo "ci.sh: split-wave repeat $run failed" >&2; exit 1; }
done
echo "-- split waves: 50 runs of the split, wavefront split, run, lane group, pool and 16-bit lane tests passed"

echo "== crash-recovery suite (cli, --features fault-inject) =="
# SIGKILLs a checkpointed scan mid-wave and resumes it: the ranked output
# must be bit-identical to an uninterrupted run with zero recomputation
# of journaled windows. Any flipped byte, or a journal cut inside its
# header, must be refused with exit 2; a journal cut anywhere past the
# header (a torn final frame) must resume to the uninterrupted ranking —
# see crates/cli/tests/crash_recovery.rs.
cargo test -p bpmax-cli --features fault-inject --offline -q

# wait_ready BIN SOCK PID: wait until the daemon PID answers on SOCK. The
# socket file exists before the daemon accepts, so its presence proves
# nothing (a client that connected in that gap was refused); a `client
# stats` exchange takes no in-flight slot, so polling with it until it
# exits 0 leaves the stage's admission state as it was. Fails the stage
# after 200 polls 0.05 s apart.
wait_ready() {
    for _ in $(seq 1 200); do
        "$1" client --socket "$2" stats > /dev/null 2>&1 && return 0
        sleep 0.05
    done
    echo "ci.sh: the daemon on $2 did not answer \`client stats\` within 10 s" >&2
    kill "$3" 2> /dev/null || true
    exit 1
}

echo "== serve smoke (daemon round-trip against the real binary) =="
# A live daemon on a throwaway socket: a cold solve, the identical
# request again as a warm cache hit, an over-budget request that must be
# a *typed* rejection (exit 2, not a crash), then a clean shutdown that
# the daemon process itself exits 0 from.
cargo build -p bpmax-cli --offline -q
SERVE_DIR="$(mktemp -d)"
SERVE_SOCK="$SERVE_DIR/bpmax.sock"
BPMAX="./target/debug/bpmax-cli"
"$BPMAX" serve --socket "$SERVE_SOCK" --cache-dir "$SERVE_DIR/cache" &
SERVE_PID=$!
wait_ready "$BPMAX" "$SERVE_SOCK" "$SERVE_PID"
# Each client writes to a file before grep reads it: `client | grep -q`
# can close the pipe at the first match, and the client's next write
# then fails (exit 101) and aborts this script under pipefail.
"$BPMAX" client --socket "$SERVE_SOCK" solve GGGAAACCC UUUGG > "$SERVE_DIR/cold.out"
grep -q "^score: 15" "$SERVE_DIR/cold.out"
"$BPMAX" client --socket "$SERVE_SOCK" solve GGGAAACCC UUUGG > "$SERVE_DIR/warm.out"
grep -q "cache hit" "$SERVE_DIR/warm.out"
reject_rc=0
"$BPMAX" client --socket "$SERVE_SOCK" solve GGGGGGGGGG CCCCCCCCCC \
    --mem-budget 64 2> /dev/null || reject_rc=$?
if [ "$reject_rc" -ne 2 ]; then
    echo "ci.sh: over-budget solve exited $reject_rc, want the typed reject (2)" >&2
    kill "$SERVE_PID" 2> /dev/null || true
    exit 1
fi
"$BPMAX" client --socket "$SERVE_SOCK" shutdown > /dev/null
wait "$SERVE_PID"
rm -rf "$SERVE_DIR"
echo "-- serve smoke: cold solve, warm hit, typed reject, clean shutdown"

echo "== serve overload + drain (fault-inject build) =="
# The deterministic slot-hold fault (BPMAX_FAULT_SERVE_HOLD_MS) makes
# every admitted solve occupy its in-flight slot for a fixed window, so
# a 1-slot, 0-queue daemon can be saturated by script: a second request
# must be *shed* with the typed overloaded rejection (exit 2, not a
# hang), a retrying client must ride the backoff to a real answer, and
# a shutdown landing mid-solve must drain — refusing new solves (exit 1)
# while the in-flight one still completes and the daemon exits 0.
cargo build -p bpmax-cli --features fault-inject --offline -q
BPMAXF="./target/debug/bpmax-cli"
OVER_DIR="$(mktemp -d)"
OVER_SOCK="$OVER_DIR/bpmax.sock"
BPMAX_FAULT_SERVE_HOLD_MS=1500 "$BPMAXF" serve --socket "$OVER_SOCK" \
    --max-inflight 1 --queue-depth 0 --queue-wait 0.2 > "$OVER_DIR/serve.out" &
OVER_PID=$!
wait_ready "$BPMAXF" "$OVER_SOCK" "$OVER_PID"
# client A occupies the single slot for the injected 1.5 s hold...
"$BPMAXF" client --socket "$OVER_SOCK" solve GGGAAACCC UUUGG > "$OVER_DIR/a.out" &
A_PID=$!
sleep 0.4
# ...so client B is shed: typed overloaded rejection, exit 2, instantly
shed_rc=0
"$BPMAXF" client --socket "$OVER_SOCK" solve GGCAUUCC AUGGCAU \
    2> "$OVER_DIR/b.err" > /dev/null || shed_rc=$?
if [ "$shed_rc" -ne 2 ] || ! grep -q "overloaded" "$OVER_DIR/b.err"; then
    echo "ci.sh: shed solve exited $shed_rc, want typed overload (2):" >&2
    cat "$OVER_DIR/b.err" >&2
    kill "$OVER_PID" 2> /dev/null || true
    exit 1
fi
# a retrying client backs off past the hold and gets a real answer
"$BPMAXF" client --socket "$OVER_SOCK" solve GGCAUUCC AUGGCAU --retries 8 \
    > "$OVER_DIR/retry.out"
grep -q "^score:" "$OVER_DIR/retry.out"
wait "$A_PID"
grep -q "^score: 15" "$OVER_DIR/a.out"
# drain: a shutdown landing while a solve is in flight...
"$BPMAXF" client --socket "$OVER_SOCK" solve GCGCGC GCGC > "$OVER_DIR/c.out" &
C_PID=$!
sleep 0.4
"$BPMAXF" client --socket "$OVER_SOCK" shutdown > /dev/null
# ...refuses new solves with the typed drain error (exit 1, not 2)
drain_rc=0
"$BPMAXF" client --socket "$OVER_SOCK" solve AAAA UUUU \
    2> "$OVER_DIR/d.err" > /dev/null || drain_rc=$?
if [ "$drain_rc" -ne 1 ] || ! grep -q "draining" "$OVER_DIR/d.err"; then
    echo "ci.sh: solve during drain exited $drain_rc, want drain refusal (1):" >&2
    cat "$OVER_DIR/d.err" >&2
    kill "$OVER_PID" 2> /dev/null || true
    exit 1
fi
# ...while the in-flight solve still completes with its answer
wait "$C_PID"
grep -q "^score:" "$OVER_DIR/c.out"
# ...and the daemon itself exits 0 with the socket removed
wait "$OVER_PID"
if [ -S "$OVER_SOCK" ]; then
    echo "ci.sh: drained daemon left its socket behind" >&2
    exit 1
fi
grep -q "shut down cleanly" "$OVER_DIR/serve.out"
grep -q "shed" "$OVER_DIR/serve.out"
rm -rf "$OVER_DIR"
echo "-- serve overload + drain: typed shed (2), retry recovery, drain refusal (1), clean exit"

echo "== cargo doc (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

# ThreadSanitizer over the concurrency model tests (CancelToken / Watch
# cancellation, BlockPool quarantine handoff), the batch engine suite
# (its `batch::` filter includes the split-wave tests batch::tests::split_*:
# a wave's coarse problems on scoped threads that share the pool of table
# buffers and the checkpoint journal), and the split-wavefront engine
# tests (engine::tests::split_*: one outer diagonal's triangles on scoped
# threads, each writing its own block while all read the earlier
# diagonals). Needs nightly +
# rust-src (std is rebuilt instrumented so its synchronization is
# visible to TSan). $1 is "required" or "auto".
run_tsan() {
    local host
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2> /dev/null | grep -q '^rust-src.*(installed)'; then
        echo "-- tsan: loom models + batch suite (split waves included) + split wavefront ($host)"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" -p bpmax --offline -q \
            --test loom_models
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" -p bpmax --offline -q \
            --lib batch::
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" -p bpmax --offline -q \
            --lib engine::tests::split_
    elif [ "$1" = "required" ]; then
        echo "ci.sh: SAN_GATE=$SAN_GATE but nightly rust-src is unavailable" >&2
        exit 2
    else
        echo "-- tsan unavailable (needs nightly + 'rustup component add rust-src'); skipped"
    fi
}

case "$SAN_GATE" in
off)
    echo "== sanitizer skipped (SAN_GATE=off) =="
    ;;
auto)
    echo "== sanitizer (SAN_GATE=auto) =="
    run_tsan auto
    ;;
require | tsan)
    echo "== sanitizer (SAN_GATE=$SAN_GATE) =="
    run_tsan required
    ;;
*)
    echo "ci.sh: unknown SAN_GATE '$SAN_GATE' (auto|require|tsan|off)" >&2
    exit 2
    ;;
esac

if [ "$BENCH_GATE" = "off" ]; then
    echo "ci.sh: all gates passed (perf gate skipped: BENCH_GATE=off)"
    exit 0
fi

echo "== smoke-bench perf gate (BENCH_GATE=$BENCH_GATE) =="
cargo build --release -p bench --bins --offline -q

# The smoke subset: the measured hot paths (double max-plus kernel, full
# BPMax versions, tile sweep) at small sizes with enough repetitions for
# a stable median + MAD. Keep in sync with the baseline-update workflow
# documented in README.md.
run_smoke() {
    local out="$1"
    rm -rf "$out"
    ./target/release/fig13_dmp_perf        --smoke --sizes 16,24 --reps 7 --json-dir "$out" > /dev/null
    ./target/release/fig15_bpmax_perf      --smoke --sizes 12,16 --reps 7 --json-dir "$out" > /dev/null
    ./target/release/fig18_tile_sweep      --smoke --sizes 48    --reps 5 --json-dir "$out" > /dev/null
    ./target/release/table01_dmp_schedules --smoke --sizes 16,24 --reps 7 --json-dir "$out" > /dev/null
    ./target/release/bench_batch_throughput --smoke --sizes 8,12 --reps 5 --json-dir "$out" > /dev/null
    ./target/release/bench_simd_kernel     --smoke --sizes 12,16 --reps 5 --json-dir "$out" > /dev/null
    ./target/release/bench_serve           --smoke --sizes 16,20 --reps 5 --json-dir "$out" > /dev/null
    ./target/release/bench_serve_load      --smoke --sizes 12,16 --reps 3 --json-dir "$out" > /dev/null
}

case "$BENCH_GATE" in
update)
    run_smoke results/ci_json
    ./target/release/bench_compare --baseline "$BASELINE_DIR" \
        --candidate results/ci_json --update-baseline
    echo "ci.sh: results/baseline re-pinned (review the diff before committing)"
    exit 0
    ;;
selfcheck)
    run_smoke results/ci_selfcheck_baseline
    BASELINE_DIR=results/ci_selfcheck_baseline
    ;;
baseline) ;;
*)
    echo "ci.sh: unknown BENCH_GATE '$BENCH_GATE' (baseline|selfcheck|update|off)" >&2
    exit 2
    ;;
esac

run_smoke results/ci_json
./target/release/bench_compare --baseline "$BASELINE_DIR" \
    --candidate results/ci_json --rel-floor "$BENCH_REL_FLOOR"

echo "ci.sh: all gates passed"
