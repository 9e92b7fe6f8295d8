#!/bin/sh
# scale_bench.sh — the million-point benchmark gate. Runs the scale-tier
# benchmarks (internal/logic/bench_scale_test.go) over the gen.ScaleTiers
# broom systems for every (tier, workers) pair and records
# BENCH_SCALE.json, keyed "tier/wN/op" with ns/op, B/op, allocs/op and
# peak RSS, plus retained heap where a benchmark reports it. The test
# binary is built once, and each (tier, workers, benchmark) row runs in a
# process of its own. A benchmark is then timed on a fresh heap, not on
# whatever an earlier benchmark of the same process left behind: with
# IndexBuild first in one process, one build's 1m Common read 0.76 ms and
# another's 1.08 ms, while each alone read 0.85 and 0.81 ms. The peak-RSS
# metric reads VmHWM from /proc/self/status, which is monotonic over a
# process's life, so each row's peak RSS is its own benchmark's (system
# build included). The sub-benchmarks of one benchmark (Checkout/post,
# Checkout/fut, ...) share its process, so they report no peak RSS.
#
# On hosts with ≥ 4 CPUs the script enforces the parallel-engine floor:
# the K sweep over every member of every cell (KnowledgeAllPass) and the
# C_G^α fixpoint at the floor tier must be ≥ 3× faster at the highest
# worker count than at workers 1. C_G is no longer a fixpoint: it is one
# K sweep over the group's component partition, tens of microseconds at
# 1m with nothing to split, so the floor times the K sweep it runs on the
# row that walks every member. On smaller hosts a 3× speedup is physically
# impossible (there is nothing to run the shards on), so the floor is
# reported but not enforced — the recorded numbers are always the real
# ones.
#
# Usage: [KPA_SCALE_TIERS="100k 1m 10m"] [KPA_SCALE_WORKERS_LIST="1 4"]
#        [BENCH_OUT=BENCH_SCALE.json] scripts/scale_bench.sh
set -eu

cd "$(dirname "$0")/.."

TIERS="${KPA_SCALE_TIERS:-100k 1m 10m}"
WORKERS_LIST="${KPA_SCALE_WORKERS_LIST:-1 4}"
OUT="${BENCH_OUT:-BENCH_SCALE.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
RAW="$TMP/raw"
BIN="$TMP/logic.test"
go test -c -o "$BIN" ./internal/logic

# Iterations per tier. Every benchmark builds its one-time tables (cells,
# space tables) before the timer starts, so no iteration pays them; the
# counts only trade noise against wall time at each size.
benchtime_for() {
	case "$1" in
	100k) echo 3x ;;
	1m) echo 2x ;;
	*) echo 1x ;;
	esac
}

# Benchmark set per tier. At 10^7 points the space tables take seconds to
# build, but the C_G^α row peaks at 4.1–4.7 GB of resident memory (w1,
# 2-CPU host), so the 10m tier runs the index, knowledge and C_G benchmarks
# by default; override with KPA_SCALE_BENCH_REGEX to include it
# deliberately on a host with the memory to spare.
bench_for() {
	case "$1" in
	10m) echo "${KPA_SCALE_BENCH_REGEX:-ScaleIndexBuild|ScaleKnowledge|ScaleCommon\$}" ;;
	*) echo "${KPA_SCALE_BENCH_REGEX:-Scale}" ;;
	esac
}

for tier in $TIERS; do
	bt="$(benchtime_for "$tier")"
	benches="$("$BIN" -test.list "$(bench_for "$tier")" | grep '^Benchmark')"
	for w in $WORKERS_LIST; do
		echo "== tier $tier, workers $w, benchtime $bt"
		for b in $benches; do
			(cd internal/logic && KPA_SCALE_TIER="$tier" KPA_SCALE_WORKERS="$w" \
				"$BIN" -test.run '^$' -test.bench "^$b\$" -test.benchmem -test.benchtime "$bt" -test.timeout 0) |
				sed "s#^BenchmarkScale#${tier}/w${w}/#" | tee -a "$RAW"
		done
	done
done

awk '
$1 ~ /^[0-9a-z]+\/w[0-9]+\// {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")      ns[name] = $i
        if ($(i+1) == "B/op")       bop[name] = $i
        if ($(i+1) == "allocs/op")  aop[name] = $i
        if ($(i+1) == "peakRSS-KB") rss[name] = $i
        if ($(i+1) == "retained-B") ret[name] = $i
    }
    if (!(name in seen)) { seen[name] = 1; order[n++] = name }
}
END {
    printf "{\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"peak_rss_kb\": %s%s}%s\n", \
            name, ns[name], (name in bop ? bop[name] : "null"), \
            (name in aop ? aop[name] : "null"), \
            (name in rss ? rss[name] : "null"), \
            (name in ret ? ", \"retained_bytes\": " ret[name] : ""), (i < n-1 ? "," : "")
    }
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"

# The parallel floor: compare workers 1 against the highest worker count
# at the floor tier (1m when present, else the last tier run).
NCPU="$(nproc 2>/dev/null || echo 1)"
FLOOR_TIER=""
for tier in $TIERS; do FLOOR_TIER="$tier"; done
case " $TIERS " in *" 1m "*) FLOOR_TIER="1m" ;; esac
WMAX=1
for w in $WORKERS_LIST; do
	if [ "$w" -gt "$WMAX" ]; then WMAX="$w"; fi
done

awk -v tier="$FLOOR_TIER" -v wmax="$WMAX" -v ncpu="$NCPU" '
$1 ~ /^[0-9a-z]+\/w[0-9]+\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
}
END {
    enforce = (ncpu >= 4 && wmax >= 4)
    status = 0
    for (op_i = split("KnowledgeAllPass CommonPr", ops, " "); op_i > 0; op_i--) {
        op = ops[op_i]
        base = ns[tier "/w1/" op]
        par  = ns[tier "/w" wmax "/" op]
        if (base > 0 && par > 0) {
            printf "%-10s %s: w1 %14.0f ns/op   w%d %14.0f ns/op   speedup %.2fx\n", \
                tier, op, base, wmax, par, base/par
            if (enforce && base/par < 3) {
                printf "FAIL: %s %s speedup %.2fx below the 3x floor\n", tier, op, base/par
                status = 1
            }
        }
    }
    if (!enforce)
        printf "note: %d CPU(s) visible — the 3x parallel floor needs >= 4, recording real numbers without enforcing it\n", ncpu
    exit status
}' "$RAW"
