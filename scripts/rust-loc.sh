#!/usr/bin/env bash
# Prints the two size figures ROADMAP.md tracks for the workspace's Rust:
#   all:      every line of every .rs file outside vendor/, perfbench/
#             and target/;
#   non-test: the same files outside every tests/ directory, counting
#             each file only up to its first `#[cfg(test)]` line.
#
# Usage: scripts/rust-loc.sh [repo-root]   (default: the script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

files() {
    find . \( -path ./vendor -o -path ./perfbench -o -path ./target -o -path ./.git \) -prune \
        -o -name '*.rs' -type f -print
}

all=$(files | xargs -r cat | wc -l)
non_test=$(files | grep -v '/tests/' | xargs -r awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')

echo "all Rust:      $all"
echo "non-test Rust: $non_test"
