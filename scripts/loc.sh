#!/bin/sh
# Non-test lines of Rust per crate and in total: every `.rs` file under
# `crates/*/src`, `src` and `shims/*/src`, each cut at its first
# `#[cfg(test)]`. This is the one definition of the LOC figure ROADMAP.md,
# CHANGES.md and the PR descriptions quote; `tests/`, `examples/` and
# `benchmark/` are not walked. `loc.sh <dir>` counts another checkout
# (the parent copy, for the before/after).
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src shims/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        cut = 0
        split(FILENAME, part, "/")
        crate = (part[1] == "src") ? "src" : part[1] "/" part[2]
    }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut { lines[crate]++; total++ }
    END {
        for (c in lines) printf "%-24s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-24s %6d\n", "total", total
    }'
