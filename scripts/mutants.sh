#!/usr/bin/env bash
# The mutation gate: every defence the tests are meant to guard must be
# guarded. Each `scripts/mutants/<name>.sed` breaks one defence — its leading
# comment says which, its `# file:` line names the source file, and its one
# `s~pattern~replacement~` command (anchored, `~`-delimited) makes the
# break. For each mutant, in name order, the script unpacks a fresh
# `git archive` copy of the tree, checks that the pattern matches exactly one
# line of the file, applies the mutant, runs
# `cargo test -q --workspace --no-fail-fast` and then, with the mutant's own
# `hpcci-scen`, the 256-fleet `gen --count 256 --seed 42 | verify`. The
# mutant is killed when at least one test or one fleet spec fails.
#
#   scripts/mutants.sh [mutant.sed ...]
#
# Prints one line per mutant: `killed` or `SURVIVED`, its name and how many
# tests and fleet specs failed, then the failing tests and, under them, the
# failing specs. Exits 1 when a mutant survives, does not compile, or its
# pattern does not match exactly one line (a refactor must carry its mutants
# along); 0 when every mutant is killed. The copies, their cargo logs and
# fleet outputs are kept under `$MUTANTS_DIR` (default: a temporary
# directory). Tracked files are tested as they stand in the working tree.
set -uo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
work=${MUTANTS_DIR:-$(mktemp -d)}
mkdir -p "$work"
tree="$work/tree"
# `git stash create` is a commit of the tracked working tree, or nothing
# when the tree is clean.
rev=$(git stash create)
rev=${rev:-HEAD}

if [ $# -gt 0 ]; then mutants=("$@"); else mutants=(scripts/mutants/*.sed); fi
# Every file some mutant edits. `git archive` stamps each file with the
# commit time, so the file the previous mutant edited would look older than
# the build of its mutant: touching them all makes cargo rebuild them.
edited=()
for m in "${mutants[@]}"; do edited+=("$(sed -n 's/^# file: //p' "$m")"); done

status=0
for m in "${mutants[@]}"; do
  name=$(basename "$m" .sed)
  file=$(sed -n 's/^# file: //p' "$m")
  pattern=$(grep -v '^#' "$m" | grep '^s~' | cut -d'~' -f2)
  rm -rf "$tree"
  mkdir -p "$tree"
  git archive "$rev" | tar -x -C "$tree"
  for f in "${edited[@]}"; do touch "$tree/$f"; done
  matches=$(grep -c -- "$pattern" "$tree/$file")
  if [ "$matches" -ne 1 ]; then
    echo "BROKEN    $name: its pattern matches $matches lines of $file, not 1"
    status=1
    continue
  fi
  sed -i -f "$m" "$tree/$file"
  log="$work/$name.log"
  fleet="$work/$name.fleet"
  scen="$work/target/debug/hpcci-scen"
  : > "$fleet"
  (
    cd "$tree" || exit 1
    CARGO_TARGET_DIR="$work/target" cargo test -q --workspace --no-fail-fast
    CARGO_TARGET_DIR="$work/target" cargo build -q -p hpcci-scen || exit 1
    "$scen" gen --count 256 --seed 42 | "$scen" verify > "$fleet" 2>&1
  ) > "$log" 2>&1
  if grep -q '^error: could not compile' "$log"; then
    echo "BROKEN    $name: the mutant does not compile (see $log)"
    status=1
    continue
  fi
  # Each failing test binary ends in `test result: FAILED. <p> passed; <f> failed; ...`.
  failed=$(grep -o '[0-9]* failed;' "$log" | awk '{ n += $1 } END { print n + 0 }')
  # `verify` prints `FAIL <spec>` for each spec an oracle flags or that does
  # not build, and ends in a `... fleet digest <hex>` line once all ran.
  specs=$(grep -c '^FAIL ' "$fleet")
  grep -q ' fleet digest ' "$fleet" || specs="$((specs + 1))"
  if [ "$failed" -gt 0 ] || [ "$specs" -gt 0 ]; then
    echo "killed    $name: $failed failing test(s), $specs failing fleet spec(s)"
  else
    echo "SURVIVED  $name: no test and no fleet spec fails"
    status=1
  fi
  # The names under each binary's `failures:` list, then the failing specs.
  awk '/^failures:$/ { list = 1; next } list && /^    / { print "          " $1; next } { list = 0 }' "$log" | sort -u
  sed -n 's/^FAIL \([^ ]*\).*/          spec \1/p' "$fleet"
  grep -q ' fleet digest ' "$fleet" || echo "          spec (the fleet verify did not finish: see $fleet)"
done
exit "$status"
