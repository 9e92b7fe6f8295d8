#!/usr/bin/env bash
# Runs the kpad benchmark from the root of a kpa checkout:
#
#   bash kpabench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
#
# Builds cmd/kpad and the benchmark program from source into .bench_build
# (or $CARGO_TARGET_DIR when set), with the Go build cache there too, so
# nothing is read or written outside the checkout, then runs the program,
# which prints one JSON result line as the last line of standard output;
# see kpabench/main.go for the workloads and metrics.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/kpad ] || [ ! -f kpabench/go.mod ]; then
	echo "kpabench: run from the root of a kpa checkout" >&2
	exit 2
fi

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -o "$out/kpad" ./cmd/kpad
(cd kpabench && go build -o "$out/kpabench" .)
exec "$out/kpabench" -kpad "$out/kpad" -out "$out" "$@"
