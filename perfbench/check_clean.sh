#!/usr/bin/env bash
# Runs every workload once untraced and once traced from the repository
# root, then fails if the run changed any tracked file or left a new
# untracked one behind. Usage: perfbench/check_clean.sh [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-2}"

snapshot() {
    git status --porcelain --untracked-files=all
    git diff --binary | cksum
}

before="$(snapshot)"
for workload in paper-grid hazard-grid online-stream serve-mixed; do
    for trace in 0 1; do
        cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds "$seconds" --trace "$trace" > /dev/null
    done
done
after="$(snapshot)"

if [ "$before" != "$after" ]; then
    echo "the benchmark changed the working tree:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    exit 1
fi
echo "clean: the working tree is unchanged after a full benchmark run"
