#!/usr/bin/env bash
# A/A and parent/change comparison: ISSUE 13's gate on same-seed pairs, and
# the driver's acceptance rule on the spread across seeds.
#
#   benchmark/aa.sh                 # this checkout against itself, 10 seeds
#   benchmark/aa.sh -n 4            # fewer seeds (quicker, coarser quartiles)
#   benchmark/aa.sh -a ../parent    # a parent checkout (side A) against this one (side B)
#   benchmark/aa.sh -w lossy_mix_256 -s 100   # one workload, seeds 100..109
#   benchmark/aa.sh -r              # no runs: report the results already there
#
# Each side runs every workload once per seed, the two sides alternating
# which goes first and the workload order reversing every seed, so the two
# runs of a seed are a minute apart at most and share the box's slow
# periods. For every end-to-end metric it prints two judgments.
#
# Pairs (ISSUE 13's gate): how much worse side B is than side A on the same
# seed — the median over seeds and the worst seed. The model clock is exact
# for a seed, so on every seed a model-clock metric may differ by 0.1% at
# most, in either direction: more is a model change, which must be meant.
# The median of the host-clock pairs may be worse by 10% (setup_s, run_s,
# cpu_s), 2% (alloc_mb) or 5% (live_heap_mb).
#
# Across seeds (the driver's rule, bounds from BENCHMARK.json): each side's
# median and quartiles over the seeds, the spread (quartile distance /
# median — for the model clock that is what the seed does, not noise), and
# how much worse side B's median is than side A's.
#
# It exits non-zero if an operation failed or any judgment fails. Raw
# results go to benchmark/out/aa-<side>.jsonl.
set -euo pipefail

n=10 first=1 a=. b=. only= report=
while getopts "n:s:a:b:w:r" opt; do
	case $opt in
	n) n=$OPTARG ;; s) first=$OPTARG ;; a) a=$OPTARG ;; b) b=$OPTARG ;; w) only=$OPTARG ;; r) report=1 ;;
	*) exit 2 ;;
	esac
done
here=$(cd "$(dirname "$0")/.." && pwd)
a=$(cd "$a" && pwd) b=$(cd "$b" && pwd)
out=$here/benchmark/out
mkdir -p "$out"
spec=$here/BENCHMARK.json
seconds=$(jq -r .run_seconds "$spec")
mapfile -t names < <(jq -r '.workloads[].name' "$spec")
[ -n "$only" ] && names=("$only")
[ -n "$report" ] && n=0
((n)) && : >"$out/aa-A.jsonl" >"$out/aa-B.jsonl"

run() { # side dir workload seed
	local line
	line=$(cd "$2" && go run ./benchmark -workload "$3" -seed "$4" -seconds "$seconds" -trace 0 2>/dev/null | tail -n 1) || true
	jq -c --arg w "$3" --argjson s "$4" '. + {workload: $w, seed: $s}' <<<"$line" >>"$out/aa-$1.jsonl"
}

for ((i = 0; i < n; i++)); do
	seed=$((first + i))
	order=("${names[@]}")
	if ((i % 2)); then
		order=()
		for ((k = ${#names[@]} - 1; k >= 0; k--)); do order+=("${names[k]}"); done
	fi
	for w in "${order[@]}"; do
		echo "seed $seed $w" >&2
		if ((i % 2)); then run B "$b" "$w" "$seed"; run A "$a" "$w" "$seed"; else run A "$a" "$w" "$seed"; run B "$b" "$w" "$seed"; fi
	done
done

python3 - "$spec" "$out/aa-A.jsonl" "$out/aa-B.jsonl" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
sides = [[json.loads(l) for l in open(p)] for p in sys.argv[2:4]]
# The pair gate. A model-clock metric is judged on every seed, both ways; a
# host-clock metric on the median over seeds of how much worse B is.
MODEL = {"virtual_ms", "lat_us_p50", "lat_us_tail", "last_rx_us_p50", "agg_goodput_MBps"}
PAIR = {"setup_s": 0.10, "run_s": 0.10, "cpu_s": 0.10, "alloc_mb": 0.02, "live_heap_mb": 0.05}
bad = 0

def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0

for w in dict.fromkeys(r["workload"] for r in sides[0]):
    runs = [{r["seed"]: r for r in side if r["workload"] == w} for side in sides]
    seeds = [s for s in runs[0] if s in runs[1]]
    failed = sum(r["failed"] for side in runs for r in side.values())
    print(f"\n{w}: {len(runs[0])}+{len(runs[1])} runs, {len(seeds)} same-seed pairs, {failed} failed operations")
    bad += failed
    if not seeds:
        bad += 1
        continue
    print(f"  {'':18} {'pairs: B worse than A':^32} | across seeds")
    print(f"  {'metric':18} {'median':>8} {'worst':>8} {'gate':>6} {'':7} |"
          f" {'A q1':>11} {'A median':>11} {'A q3':>11} {'A spread':>9} {'B median':>11} {'B spread':>9} {'B worse':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        value = lambda r: r["metrics"][name]["value"]
        worse = [sign * (value(runs[1][s]) - value(runs[0][s])) / value(runs[0][s]) for s in seeds]
        if name in MODEL:
            gate, judged = 0.001, max(abs(x) for x in worse)
        else:
            gate, judged = PAIR[name], statistics.median(worse)
        pair_ok = judged <= gate
        (q1, ma, q3, sa), (_, mb, _, sb) = (stats([value(r) for r in side.values()]) for side in runs)
        across = sign * (mb - ma) / ma
        # setup_s is judged on its medians only: its spread has no bound.
        across_ok = across <= bound and (name == "setup_s" or max(sa, sb) <= bound)
        bad += (not pair_ok) + (not across_ok)
        print(f"  {name:18} {statistics.median(worse):+8.2%} {max(worse, key=abs):+8.2%} {gate:6.1%} {'ok' if pair_ok else 'EXCEEDS':7} |"
              f" {q1:11.5g} {ma:11.5g} {q3:11.5g} {sa:9.2%} {mb:11.5g} {sb:9.2%} {across:+8.2%} {bound:6.0%}{'' if across_ok else '  EXCEEDS'}")
sys.exit(1 if bad else 0)
EOF
