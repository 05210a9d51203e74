#!/usr/bin/env bash
# Canonical tier-1 verification: hermetic build + full test suite + format
# check, entirely offline. Referenced from ROADMAP.md; CI and pre-merge
# checks should run exactly this.
set -euo pipefail

cd "$(dirname "$0")/.."

# Warnings are errors: the workspace must build clean.
export RUSTFLAGS="-D warnings"

echo "==> checking for stray proptest-regressions files"
if regressions=$(find . -path ./target -prune -o -name '*.proptest-regressions' -print | grep .); then
    echo "error: stale proptest-regressions files checked in:" >&2
    echo "$regressions" >&2
    echo "The in-repo props! harness replays via OMT_PROP_SEED instead;" >&2
    echo "fix the failure and delete the file." >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The churn fuzz validates the dynamic overlay after every membership
# event and the churn goldens pin what fixed traces build (their
# 20k-event traces run only in release). Release keeps the every-event
# snapshot checks cheap; OMT_THREADS=4 puts the parallel store builder
# that every amortized rebuild runs on multiple workers, whose output
# must not depend on the thread count.
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz --test churn_goldens"
OMT_THREADS=4 cargo test -q --release --offline -p omt-core --test churn_fuzz --test churn_goldens

# The decentralized protocol's suites: differential parity against the
# centralized builder, the fault-injection fuzz campaigns and the
# cross-version goldens, plus the event engine they run on (checked
# against its reference model), in release so the 10k-host legs stay
# fast. OMT_THREADS=4 pins the ambient thread count the suites assume
# (the protocol engine itself is deterministic for any value — that is
# part of the contract).
echo "==> OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto"
OMT_THREADS=4 cargo test -q --release --offline -p omt-sim -p omt-proto

# API docs are part of the contract: the library crates deny
# missing_docs, and this build additionally fails on any rustdoc
# warning (broken intra-doc links, bad code fences). CI's docs job runs
# the same command plus the doctests.
echo "==> RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
