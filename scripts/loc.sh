#!/usr/bin/env bash
# Non-test line count of the workspace crates, the size measure ROADMAP
# aim 2 is judged by.
#
# Usage: scripts/loc.sh [repo-dir]    (default: the repository this script is in)
#
# Counts every `crates/*/src/**/*.rs` file, the offline shims under
# `crates/shims/*/src` included. Each file is counted, every line, up to the
# `#[cfg(test)]` that opens an inline test module (`#[cfg(test)]`, then only
# blank or attribute lines, then `mod <name> {`). A `#[cfg(test)]` on any
# other item, or on a `mod tests;` declaration whose body lives in its own
# file, does not end the count: the code after it is not test code. A file
# whose tests live in a declared `tests.rs` has that file counted whole, as
# every other file under `src/` is.
#
# Prints one row per crate and the total. It reads only; it gates nothing.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

shopt -s nullglob globstar
files=(crates/*/src/**/*.rs crates/shims/*/src/**/*.rs)
if [ "${#files[@]}" -eq 0 ]; then
    echo "loc.sh: no crates/*/src/**/*.rs under $root" >&2
    exit 1
fi

awk '
    # Lines of the current file before the test module that ends its count.
    function finish() {
        if (file == "") return
        n = (cut >= 0) ? cut : FNR_last
        crate = file
        sub(/^crates\//, "", crate)
        sub(/\/src\/.*$/, "", crate)
        per[crate] += n
        total += n
    }
    FNR == 1 { finish(); file = FILENAME; cut = -1; pending = -1 }
    { FNR_last = FNR }
    cut >= 0 { next }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = FNR - 1; next }
    pending >= 0 && /^[[:space:]]*(#\[.*\])?[[:space:]]*$/ { next }
    pending >= 0 && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*\{/ {
        cut = pending
        next
    }
    { pending = -1 }
    END {
        finish()
        for (c in per) printf "%-22s %7d\n", c, per[c] | "sort"
        close("sort")
        printf "%-22s %7d\n", "total", total
    }
' "${files[@]}"
