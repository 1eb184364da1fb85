#!/usr/bin/env bash
# Runs N interleaved pairs of `adpbench` on one workload, a parent build
# against a change build, and summarises them the way a performance claim
# is judged: per metric, the parent and change medians, the parent's
# quartiles, the median per-pair change and the number of pairs the change
# won; then `adpbench check-noise` over the two result files.
#
#     scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [--smoke]
#         [--seed FIRST] [--dir DIR] [-- ADPBENCH_ARGS...]
#
# Pair i runs seed FIRST+i-1 (FIRST defaults to 1) on both builds, parent
# first in odd pairs and change first in even ones. Each run appends one
# JSON line (`--out`) to DIR/parent.jsonl or DIR/change.jsonl and its text
# report to DIR/<side>-<seed>.log; DIR defaults to a fresh temporary
# directory. Arguments after `--` go to every run (`--trace 1`,
# `--seconds 5`). A metric's direction ("higher"/"lower" is better) comes
# from BENCHMARK.json. The script fails if a run fails; the check-noise
# verdict is printed, not enforced, since two builds that differ on the
# claimed metric are what a performance change is meant to produce.
set -euo pipefail

usage() {
  sed -n '8,9p' "$0" >&2
  exit 2
}
[ $# -ge 4 ] || usage
parent_bin=$1 change_bin=$2 workload=$3 pairs=$4
shift 4
smoke=() first=1 dir="" extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=(--smoke) ;;
    --seed) first=$2; shift ;;
    --dir) dir=$2; shift ;;
    --) shift; extra=("$@"); break ;;
    *) usage ;;
  esac
  shift
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
[ -n "$dir" ] || dir=$(mktemp -d)
mkdir -p "$dir"
benchmark_json="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

run() { # side bin seed
  echo "# pair $pair: $1 seed $3" >&2
  "$2" --workload "$workload" --seed "$3" "${smoke[@]}" "${extra[@]}" \
    --out "$dir/$1.jsonl" >"$dir/$1-$3.log" 2>&1 ||
    { echo "$1 run with seed $3 failed; see $dir/$1-$3.log" >&2; exit 1; }
}

for pair in $(seq 1 "$pairs"); do
  seed=$((first + pair - 1))
  if [ $((pair % 2)) -eq 1 ]; then
    run parent "$parent_bin" "$seed"
    run change "$change_bin" "$seed"
  else
    run change "$change_bin" "$seed"
    run parent "$parent_bin" "$seed"
  fi
done

python3 - "$benchmark_json" "$dir/parent.jsonl" "$dir/change.jsonl" <<'EOF'
import json, sys

contract = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
runs = [[json.loads(l) for l in open(p) if l.strip()] for p in sys.argv[2:]]

def pct(xs, q):  # linear interpolation between closest ranks
    xs = sorted(xs)
    at = (len(xs) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)

names = sorted(set(runs[0][0]["metrics"]) & set(runs[1][0]["metrics"]))
print(f"{'metric':32} {'parent':>12} {'change':>12} {'parent q1..q3':>25} {'pair chg':>9} {'won':>5}")
for name in names:
    p = [r["metrics"][name]["value"] for r in runs[0]]
    c = [r["metrics"][name]["value"] for r in runs[1]]
    sign = -1 if better.get(name, "lower") == "lower" else 1
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    change = [100 * (b - a) / a for a, b in zip(p, c) if a]
    gain = f"{pct(change, 0.5):+8.1f}%" if change else f"{'-':>9}"
    quartiles = f"{pct(p, 0.25):.4g}..{pct(p, 0.75):.4g}"
    print(f"{name:32} {pct(p, 0.5):12.5g} {pct(c, 0.5):12.5g} {quartiles:>25} {gain} {won:>2}/{len(c)}")
for side, rs in zip(("parent", "change"), runs):
    failed = sum(r["failed"] for r in rs)
    print(f"# {side}: {len(rs)} runs, {failed} failed operations, all correct: {all(r['correct'] for r in rs)}")
EOF

echo "# check-noise $dir/parent.jsonl $dir/change.jsonl"
"$change_bin" check-noise "$dir/parent.jsonl" "$dir/change.jsonl" ||
  echo "# check-noise did not pass (see above)"
echo "# results in $dir"
