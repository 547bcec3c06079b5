#!/bin/sh
# Panic sites in library code, per crate and in total: occurrences of
# `unwrap(`, `expect(`, `panic!` and `unreachable!` in every `.rs` file that
# `loc.sh` walks, under the same rule (each file cut at its first
# `#[cfg(test)]`), comment lines skipped. This is the one definition of the
# figure ROADMAP item 3(a) tracks. `panics.sh <dir>` counts another checkout.
set -eu
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src shims/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        cut = 0
        split(FILENAME, part, "/")
        crate = (part[1] == "src") ? "src" : part[1] "/" part[2]
    }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut && !/^[ \t]*\/\// {
        n = gsub(/unwrap\(|expect\(|panic!|unreachable!/, "&")
        sites[crate] += n
        total += n
    }
    END {
        for (c in sites) if (sites[c]) printf "%-24s %6d\n", c, sites[c] | "sort"
        close("sort")
        printf "%-24s %6d\n", "total", total
    }'
