#!/usr/bin/env bash
# Prints the number of library source lines: every Rust file under
# crates/*/src and src (tests, benches, examples and vendored shims are
# not counted). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -type f -name '*.rs' -print0 | xargs -0 cat | wc -l
