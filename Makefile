# Development entry points; CI should run `make verify`.

.PHONY: build test lint verify fuzz bench scale-bench chaos search-bench loadtest

build:
	go build ./...

test:
	go test ./...

# go vet plus kpavet's ten repo-invariant contract checks (exact
# rationals behind internal/rat, no floats in probability code, immutable
# big.Rat receivers, guarded-field locking, deterministic map-derived
# output, context threading, goroutine termination, service error kinds,
# shard bodies that write only their own part and engine goroutines only
# in ParFill, cancel polling in sweeps and fixpoints). Dense-set
# immutability and returned workers need no check: DenseSet exports no
# writer, and Engine.Sweep releases in a defer. TestList in cmd/kpavet
# pins the roster: bigimport, cancelpoll, ctxflow, errkind, floatprob,
# goleak, lockguard, maprange, ratmut, shardsafe. See docs/LINTING.md.
lint:
	go vet ./...
	go run ./cmd/kpavet ./...

# vet + full test suite under the race detector (validates the concurrent
# query service's pooling contract).
verify:
	./scripts/verify.sh

# Coverage-guided fuzzing of the trust boundaries that have targets: the
# formula parser, the upload decoder behind /v1/systems, the snapshot
# decoder, the search-checkpoint decoder, kpad's JSON handlers and the
# upload envelope scan; plus the dense engine against the reference
# evaluator on generated systems. 30 s each. Plain `go test` replays their
# seed corpora; a crasher found here goes under the package's
# testdata/fuzz/<Target>/ once fixed.
fuzz:
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/logic
	go test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 30s ./internal/logic
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/encode
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 30s ./internal/search
	go test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime 30s ./cmd/kpad
	go test -run '^$$' -fuzz '^FuzzUploadEnvelope$$' -fuzztime 30s ./cmd/kpad

# The fault-injection chaos suite under the race detector: seeded faults
# (latency, errors, panics) against the serving stack, asserting the
# containment invariants of docs/RESILIENCE.md; plus the search-engine
# kill-and-resume scenarios of docs/SEARCH.md.
chaos:
	go test -race -run Chaos ./internal/search/... ./internal/service/... ./cmd/kpad/...

# The dense-engine benchmark trajectory: runs the Dense*/Naive* pairs,
# records BENCH_PR7.json (override with BENCH_OUT), prints the speedups
# and enforces the 3x floor on the C_G^alpha fixpoint. See
# docs/PERFORMANCE.md.
bench:
	./scripts/bench.sh

# The million-point benchmark gate: runs the scale-tier benchmarks
# (10^5-10^7-point broom systems x worker counts, one process per pair),
# records BENCH_SCALE.json with peak RSS, and on >=4-CPU hosts enforces
# the 3x parallel floor on the K sweep over every cell member and the
# C_G^alpha fixpoint. See docs/PERFORMANCE.md.
scale-bench:
	./scripts/scale_bench.sh

# The strategy-search benchmark: solves a 2^32-strategy coupled fixture by
# branch and bound and records BENCH_SEARCH.json (nodes/sec, pruned
# permille — all integers, no floats). See docs/SEARCH.md.
search-bench:
	./scripts/search_bench.sh

# The warm-restart benchmark gate: kpaload replays mixed /v1/check +
# /v1/batch traffic against a real kpad booted cold and then again after a
# SIGTERM + snapshot-restored restart, records BENCH_RESTART.json
# (override with BENCH_OUT), and enforces the 5x cold-vs-warm
# first-request floor on the scale:100k tier. See docs/RESILIENCE.md.
loadtest:
	./scripts/load_bench.sh
