#!/usr/bin/env bash
# Lint, unit-test and smoke-run the benchmark package. Root CI does not
# see this standalone package; run this by hand from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
# The smoke run writes traces under benchmark/out, so start it at the root.
cd ..
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick
