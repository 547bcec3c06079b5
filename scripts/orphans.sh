#!/bin/sh
# Public items nothing reads: every `pub fn`, `pub struct`, `pub enum` and
# `pub const` declared in the files `loc.sh` walks whose name occurs, as a
# whole word, in no non-comment line of `crates/`, `src/`, `shims/`,
# `tests/`, `examples/` or `benchmark/src` other than its own definition.
# Every file is cut at its first `#[cfg(test)]`, as in `loc.sh`: an item only
# unit tests call is an orphan, one an integration test calls is not. Names
# are matched as text, so two items sharing a name are orphans only if
# neither is named anywhere else. Prints `path:line kind name` per orphan,
# then the total; `orphans.sh <dir>` counts another checkout.
set -eu
cd "${1:-$(dirname "$0")/..}"
awk '
    FNR == 1 { cut = 0 }
    /#\[cfg\(test\)\]/ { cut = 1 }
    cut || /^[ \t]*\/\// { next }
    pass == "def" && match($0, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|const) [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), w, " ")
        defs[w[n]]++
        at[w[n]] = at[w[n]] FILENAME ":" FNR " " w[n - 1] " " w[n] "\n"
    }
    pass == "use" {
        line = $0
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, w, " ")
        for (i = 1; i <= n; i++) if (w[i] in defs) uses[w[i]]++
    }
    END {
        for (name in defs) if (uses[name] == defs[name]) {
            printf "%s", at[name] | "sort"
            total += defs[name]
        }
        close("sort")
        printf "%-24s %6d\n", "total", total
    }' pass=def $(find crates/*/src src shims/*/src -name '*.rs' | sort) \
       pass=use $(find crates src shims tests examples benchmark/src -name '*.rs' | sort)
