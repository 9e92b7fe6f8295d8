#!/bin/sh
# bench.sh — the layer benchmarks, recorded as BENCH.json: one JSON row
# per benchmark, {layer, case, workers, cpus, ns_per_op, bytes_per_op,
# allocs_per_op, peak_rss_kb}, null where a row reports no value, plus
# any other unit it reports (rounds/op, retained-B, MB/s, ...) under the
# unit's name. layer is the package (http for the restart rows); a wN
# segment of the case gives workers (else 1), and its -N suffix the CPUs.
# Three kinds of rows, in this order:
#
#  1. every top-level Benchmark in the module, each in a process of its
#     own, from its package directory. A benchmark is then timed on a
#     fresh heap, not on whatever an earlier one left behind (one
#     process's 1m Common read 0.76 ms after IndexBuild and 0.85 ms
#     alone), and its peak RSS, read from the monotonic VmHWM, is its own;
#  2. internal/logic's scale-tier benchmarks over the gen.ScaleTiers
#     brooms, once per (tier, workers) pair: 100k and 1m at w1, w2 and w4,
#     and 10m at w1, one iteration each (-benchtime 1x) and without
#     CommonPr, whose process peaked at 4.1–4.7 GB in one iteration. (At
#     2 s, 10m ScaleKnowledge and ScaleCommon ran 10,000 iterations, whose
#     garbage took their processes to 4.45 and 5.34 GB resident.);
#  3. http/restart/cold and http/restart/warm: kpaload against a kpad
#     booted over an empty snapshot directory, then against the same kpad
#     restored after a SIGTERM. ns_per_op is the lone first request.
#
# Then it checks the floors on the rows:
#  - dense C_G^α fixpoint ≥ 3× faster than the naive one;
#  - warm restart's first request ≥ 5× faster than the cold one;
#  - 1m ScaleKnowledgeAllPass and ScaleCommonPr ≥ 3× faster at w4 than
#    at w1, enforced only on hosts with ≥ 4 CPUs, where the shards have
#    cores to run on.
# (The search floor is TestSearchBenchReport's.)
#
# Usage: scripts/bench.sh [smoke]
# smoke runs every benchmark once (-benchtime 1x), the 100k tier at w2
# and an introcoin restart cycle, writes its rows to a temporary file and
# checks that every row a floor reads is there, without enforcing ratios.
# KPA_LOAD_ADDR (127.0.0.1:18423) is kpad's loopback address.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
KPAD_PID=""
trap '[ -z "$KPAD_PID" ] || kill -KILL "$KPAD_PID" 2>/dev/null; rm -rf "$TMP"' EXIT
ROWS="$TMP/rows"
: >"$ROWS"
ADDR="${KPA_LOAD_ADDR:-127.0.0.1:18423}"
NCPU="$(nproc)"
# Only scale() sets the tier: inherited, it would run the scale-tier
# benchmarks among the first kind of rows.
unset KPA_SCALE_TIER KPA_SCALE_WORKERS

case "${1:-}" in
'') SMOKE=0 BT=2s OUT=BENCH.json PAR='1m/w1 1m/w4' LOAD='scale:100k m2,m3,m5 600 4' ;;
smoke) SMOKE=1 BT=1x OUT="$TMP/BENCH.json" PAR='100k/w2 100k/w2' LOAD='introcoin heads 25 2' ;;
*) echo "usage: scripts/bench.sh [smoke]" >&2; exit 2 ;;
esac

# bench LAYER DIR BIN NAME [PREFIX]: run one benchmark in a process of its
# own and append its result lines to $ROWS as "LAYER PREFIXcase-N iters
# value unit ...".
bench() {
	(cd "$2" && "$3" -test.run '^$' -test.bench "^$4\$" -test.benchmem -test.benchtime "$BT" -test.timeout 0) |
		tee "$TMP/out"
	grep -qx PASS "$TMP/out" || { echo "FAIL: $1 $4" >&2; exit 1; }
	sed -n "s#^Benchmark#$1 ${5:-}#p" "$TMP/out" >>"$ROWS"
}

for p in $(go list -f '{{.ImportPath}}={{.Dir}}' ./...); do
	pkg="${p%%=*}" dir="${p#*=}"
	layer="${pkg##*/}"
	grep -qs '^func Benchmark' "$dir"/*_test.go || continue
	go test -c -o "$TMP/$layer.test" "$pkg"
	for b in $("$TMP/$layer.test" -test.list '^Benchmark'); do
		bench "$layer" "$dir" "$TMP/$layer.test" "$b"
	done
done

# scale TIER "WORKERS..." REGEX: the scale benchmarks matching REGEX, once
# per worker count, each in a process of its own.
scale() {
	for w in $2; do
		export KPA_SCALE_TIER="$1" KPA_SCALE_WORKERS="$w"
		for b in $("$TMP/logic.test" -test.list "^BenchmarkScale($3)\$"); do
			bench logic internal/logic "$TMP/logic.test" "$b" "$1/w$w/"
		done
	done
}
if [ "$SMOKE" = 1 ]; then
	scale 100k 2 '.*'
else
	scale 100k '1 2 4' '.*'
	scale 1m '1 2 4' '.*'
	BT=1x
	scale 10m 1 'IndexBuild|Knowledge|Common'
fi

go build -o "$TMP/kpad" ./cmd/kpad
go build -o "$TMP/kpaload" ./cmd/kpaload
mkdir "$TMP/snap" "$TMP/search"

# restart CASE: boot kpad over $TMP/snap, replay the workload with
# kpaload, append the report as the row http restart/CASE, and SIGTERM it,
# failing if it has not exited within 60 s.
restart() {
	"$TMP/kpad" -addr "$ADDR" -snapshot-dir "$TMP/snap" -search-dir "$TMP/search" 2>>"$TMP/kpad.log" &
	KPAD_PID=$!
	i=0
	until curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
		kill -0 "$KPAD_PID" 2>/dev/null && [ $((i += 1)) -le 240 ] ||
			{ cat "$TMP/kpad.log" >&2; echo "FAIL: kpad did not come up" >&2; exit 1; }
		sleep 0.5
	done
	set -- "$1" $LOAD
	"$TMP/kpaload" -url "http://$ADDR" -system "$2" -props "$3" -requests "$4" -concurrency "$5" >"$TMP/$1.json"
	cat "$TMP/$1.json"
	awk -v c="$1" -v ncpu="$NCPU" -F: '{ gsub(/[", \t]/, "") }
		/^firstRequestMs/ { ns = $2 * 1e6 } /^p50Ms/ { p50 = $2 } /^p95Ms/ { p95 = $2 } /^p99Ms/ { p99 = $2 } /^throughputRps/ { rps = $2 } /^errors/ { errs = $2 }
		END { printf "http restart/%s-%d 1 %.0f ns/op %s p50-ms %s p95-ms %s p99-ms %s req/s %s errors\n", c, ncpu, ns, p50, p95, p99, rps, errs }' \
		"$TMP/$1.json" >>"$ROWS"
	kill -TERM "$KPAD_PID"
	i=0
	while kill -0 "$KPAD_PID" 2>/dev/null; do
		[ $((i += 1)) -le 120 ] || { echo "FAIL: kpad did not exit after SIGTERM" >&2; exit 1; }
		sleep 0.5
	done
	KPAD_PID=""
}
restart cold
[ -n "$(ls "$TMP/snap")" ] || { echo "FAIL: SIGTERM flushed no snapshot" >&2; exit 1; }
restart warm
grep -q '"firstRequestCached": true' "$TMP/warm.json" || { echo "FAIL: the warm first request missed the restored cache" >&2; exit 1; }

# The one parser: $ROWS to the JSON rows, then the floors off them.
awk -v out="$OUT" -v smoke="$SMOKE" -v ncpu="$NCPU" -v pb="${PAR% *}" -v pt="${PAR#* }" '
{
	name = $2; cpus = 1; workers = 1
	if (match(name, /-[0-9]+$/)) { cpus = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
	n = split(name, seg, "/")
	for (i = 1; i <= n; i++) if (seg[i] ~ /^w[0-9]+$/) workers = substr(seg[i], 2)
	v["ns/op"] = v["B/op"] = v["allocs/op"] = v["peakRSS-KB"] = "null"; extra = ""
	for (i = 4; i < NF; i += 2) {
		if ($(i+1) in v) v[$(i+1)] = $i
		else extra = extra sprintf(", \"%s\": %s", $(i+1), $i)
	}
	printf("%s\n  {\"layer\": \"%s\", \"case\": \"%s\", \"workers\": %d, \"cpus\": %d, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"peak_rss_kb\": %s%s}", \
		(NR > 1 ? "," : "["), $1, name, workers, cpus, v["ns/op"], v["B/op"], v["allocs/op"], v["peakRSS-KB"], extra) > out
	ns[$1 "/" name] = v["ns/op"]
}
function floor(what, slow, fast, min, enforce,   r) {
	if (!(slow in ns) || !(fast in ns)) { printf "FAIL: %s: no row %s or %s\n", what, slow, fast; status = 1; return }
	r = ns[slow] / ns[fast]
	printf "%s: %.2fx (floor %dx%s)\n", what, r, min, enforce ? "" : ", not enforced"
	if (enforce && r < min) { printf "FAIL: %s below its %dx floor\n", what, min; status = 1 }
}
END {
	print "\n]" > out
	printf "%d rows in %s\n", NR, out
	floor("dense vs naive C_G^alpha", "logic/NaiveCommonPrFixpoint", "logic/DenseCommonPrFixpoint", 3, !smoke)
	floor("warm vs cold restart first request", "http/restart/cold", "http/restart/warm", 5, !smoke)
	for (i = split("ScaleKnowledgeAllPass ScaleCommonPr", op, " "); i > 0; i--)
		floor(pt " vs " pb " " op[i], "logic/" pb "/" op[i], "logic/" pt "/" op[i], 3, !smoke && ncpu >= 4)
	exit status
}' "$ROWS"
