#!/usr/bin/env bash
# Self-test of the benchmark's answer checks: every workload runs once
# with one answer corrupted (--flip-answer flips the lowest bit of one
# score) and must report it: failed_ratio > 0 and a non-zero exit.
#
#   bash perfbench/selftest.sh        (from the root of the repository)
set -u
cd "$(dirname "$0")/.." || exit 2
cmd=(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml --)
status=0
for w in solve-large scan-journaled serve-mixed; do
    out=$("${cmd[@]}" --workload "$w" --seed 1 --seconds 1 --trace 0 --flip-answer)
    code=$?
    ratio=$(printf '%s\n' "$out" | sed -n 's/^failed_ratio \([0-9.e-]*\) .*/\1/p')
    if [ "$code" -ne 0 ] && [ -n "$ratio" ] && [ "$ratio" != 0 ]; then
        echo "ok: $w caught the corrupted answer (failed_ratio $ratio, exit $code)"
    else
        echo "FAIL: $w missed the corrupted answer (failed_ratio ${ratio:-none}, exit $code)"
        status=1
    fi
done
exit "$status"
