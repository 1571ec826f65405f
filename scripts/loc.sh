#!/usr/bin/env bash
# Non-blank, non-test source lines per crate and in total — the count
# simplicity changes quote.
#
# Counted: `crates/*/src`, `src` and `examples`. Skipped: `tests/`
# directories, and everything in a file from its first `#[cfg(test)]` line
# onward (unit-test modules sit at the end of their file).
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { in_test = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
            !in_test && NF { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }' # xargs may split the file list
}

total=0
for dir in crates/*/src src examples; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%-24s %6d\n' "$dir" "$n"
done
printf '%-24s %6d\n' total "$total"
