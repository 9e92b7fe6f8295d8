# Development entry points; CI should run `make verify`.

.PHONY: build test lint verify fuzz bench chaos

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
# query service's model-sharing contract).
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

# The layer benchmarks: every benchmark in the module, each in a process
# of its own, the scale tiers (10^5-10^7-point brooms) per worker count,
# and kpaload against a cold and a snapshot-restored kpad, recorded as the
# rows of BENCH.json; then the floors: dense vs naive C_G^alpha >= 3x, the
# warm restart's first request >= 5x, and on >=4-CPU hosts the 1m K sweep
# and C_G^alpha >= 3x faster at w4 than w1. `scripts/bench.sh smoke` runs
# each once and checks the floors' rows without enforcing them. See
# docs/PERFORMANCE.md.
bench:
	./scripts/bench.sh
