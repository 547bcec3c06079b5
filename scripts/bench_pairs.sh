#!/usr/bin/env bash
# Paired benchmark runs of two revisions on one host.
#
#   scripts/bench_pairs.sh BASE HEAD [--pairs N] [--seconds S] [--seed S]
#                          [--workloads "W ..."] [--row]
#
# Each revision is `git archive`d into a directory of its own, its files are
# touched (an archive stamps them with the commit time, so cargo could take
# stale artifacts for fresh ones), and its benchmark is built once with its
# own `CARGO_TARGET_DIR`. Then, per workload, the two binaries run
# `--workload W --seed S --seconds S --trace 0` alternately, N pairs, and
# which side goes first swaps every pair. Defaults: 10 pairs, 20 s, seed 7,
# every workload `BENCHMARK.json` lists.
#
# Prints, per workload and end-to-end metric of `BENCHMARK.json`, each side's
# median and quartiles, the ratio of the medians (head / base) and the pairs
# head won (strictly better in the metric's direction); then each side's
# share of failed operations. `--row` appends the same statistics as one
# JSON row to `BENCH_repo.json`, with the host (`nproc`, CPU model), both
# revisions, the settings and both trees' `loc.sh`, `panics.sh`, `locks.sh`
# and `orphans.sh` totals; anything not measured is `null`. The archives,
# builds and per-run outputs stay under `$BENCH_DIR` (default: a temporary
# directory).
set -euo pipefail

usage() {
  sed -n '4,5p' "$0" | sed 's/^# *//' >&2
  exit 2
}
[ $# -ge 2 ] || usage
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
head_rev=$(git rev-parse --verify "$2^{commit}")
shift 2
pairs=10 seconds=20 seed=7 row=0
workloads=$(jq -r '.workloads[].name' BENCHMARK.json | tr '\n' ' ')
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --row) row=1; shift ;;
    *) usage ;;
  esac
done
work=${BENCH_DIR:-$(mktemp -d)}
mkdir -p "$work/runs"

for side in base head; do
  rev=${side}_rev
  rm -rf "${work:?}/$side"
  mkdir -p "$work/$side"
  git archive "${!rev}" | tar -x -C "$work/$side"
  find "$work/$side" -type f -exec touch {} +
  echo "building $side (${!rev:0:12})" >&2
  CARGO_TARGET_DIR="$work/$side-target" \
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
done

for w in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base head"; else order="head base"; fi
    for side in $order; do
      out="$work/runs/$w.$side.$i.json"
      "$work/$side-target/release/hpcci-benchmark" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$out"
      echo "$w pair $i $side: $(jq -c '.metrics.ops_per_s.value' "$out") ops/s" >&2
    done
  done
done

for side in base head; do
  for s in loc panics locks orphans; do
    scripts/$s.sh "$work/$side" | awk -v k="$side.$s" '$1 == "total" { print k, $2 }'
  done
done > "$work/gates.txt"

BENCH_DIR=$work PAIRS=$pairs SECONDS_=$seconds SEED=$seed WORKLOADS=$workloads \
  BASE=$base_rev HEAD=$head_rev ROW=$row python3 - <<'EOF'
import json, os, statistics, subprocess

work = os.environ["BENCH_DIR"]
pairs = int(os.environ["PAIRS"])
workloads = os.environ["WORKLOADS"].split()
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(w, side, i):
    try:
        return json.load(open(f"{work}/runs/{w}.{side}.{i}.json"))
    except (OSError, ValueError):
        return None

def quartiles(xs):
    if not xs:
        return None
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}

stats = {}
for w in workloads:
    runs = {side: [load(w, side, i) for i in range(1, pairs + 1)] for side in ("base", "head")}
    def value(run, name):
        m = run and run.get("metrics", {}).get(name)
        return None if m is None else m["value"]
    entry = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides = {s: quartiles([v for v in (value(r, name) for r in runs[s]) if v is not None])
                 for s in ("base", "head")}
        ratio = None
        if sides["base"] and sides["head"] and sides["base"]["median"]:
            ratio = sides["head"]["median"] / sides["base"]["median"]
        won = None
        if sides["base"] and sides["head"]:
            won = 0
            for b, h in zip(runs["base"], runs["head"]):
                bv, hv = value(b, name), value(h, name)
                if bv is not None and hv is not None and (hv > bv if higher else hv < bv):
                    won += 1
        entry[name] = {**sides, "ratio": ratio, "head_won": won}
    for s in ("base", "head"):
        done = [r for r in runs[s] if r]
        attempted = sum(r["attempted"] for r in done)
        entry[f"failed_share_{s}"] = (sum(r["failed"] for r in done) / attempted) if attempted else None
        entry[f"correct_{s}"] = all(r["correct"] for r in done) if len(done) == pairs else None
    stats[w] = entry

fmt = lambda q: "null" if q is None else f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
for w, entry in stats.items():
    print(f"== {w}")
    for m in metrics:
        e = entry[m["name"]]
        ratio = "null" if e["ratio"] is None else f"x{e['ratio']:.3f}"
        won = "null" if e["head_won"] is None else f"{e['head_won']}/{pairs}"
        print(f"  {m['name']:<22} base {fmt(e['base']):<36} head {fmt(e['head']):<36} {ratio:>8}  won {won}")
    print(f"  failed share           base {entry['failed_share_base']}  head {entry['failed_share_head']}")

if os.environ["ROW"] == "1":
    gates = {"base": {}, "head": {}}
    for line in open(f"{work}/gates.txt"):
        key, total = line.split()
        side, script = key.split(".")
        gates[side][script] = int(total)
    for side in gates.values():
        for script in ("loc", "panics", "locks", "orphans"):
            side.setdefault(script, None)
    model = None
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    row = {
        "host": {"nproc": nproc, "cpu_model": model},
        "base": os.environ["BASE"],
        "head": os.environ["HEAD"],
        "settings": {"pairs": pairs, "seconds": float(os.environ["SECONDS_"]),
                     "seed": int(os.environ["SEED"]), "workloads": workloads, "trace": 0},
        "stats": stats,
        "gates": gates,
    }
    path = "BENCH_repo.json"
    rows = json.load(open(path)) if os.path.exists(path) else []
    rows.append(row)
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")
    print(f"appended a row to {path} ({len(rows)} rows)")
EOF
