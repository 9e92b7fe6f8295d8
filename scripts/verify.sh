#!/bin/sh
# verify.sh — the checks every PR must pass: vet, the kpavet contract
# suite (all ten analyzers, including the interprocedural ctxflow /
# goleak / errkind concurrency contracts and the shardsafe / cancelpoll
# parallelism contracts), then the full test suite under the race
# detector. kpavet rejects the code shapes that break the
# repo's invariants (docs/LINTING.md); the -race run then validates the
# model-sharing and cancellation contracts dynamically (internal/service's
# concurrency tests hammer shared services from dozens of goroutines).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go run ./cmd/kpavet ./...
# The parallelism-contract subset by itself: the -run fast path must
# stay wired up and clean on the engine it was written for.
go run ./cmd/kpavet -run shardsafe,cancelpoll ./...
# The analyzer fixture modules are real Go modules the main build never
# compiles: keep them gofmt-clean and vet-clean so fixture rot can't
# hide behind the want-comment matcher. vet's unreachable check is off:
# ratmut's fixtures use dead code on purpose to exercise the CFG walk.
for mod in internal/analysis/*/testdata; do
	[ -f "$mod/go.mod" ] || continue
	test -z "$(gofmt -l "$mod")"
	(cd "$mod" && go vet -unreachable=false ./...)
done
go build ./...
# The chaos suite first, as its own named gate: fault injection against
# the serving stack must hold its containment invariants before the full
# suite runs (docs/RESILIENCE.md), and the search engine must survive
# kill-and-resume with an unchanged answer (docs/SEARCH.md).
make chaos
# The strategy-search differential gate: branch and bound must agree with
# brute-force enumeration — value and witness — on ≥50 generated systems,
# with ≥4 workers under the race detector (docs/SEARCH.md).
go test -race -run TestDifferentialAgainstBruteForce -count=1 ./internal/search
go test -race ./...
# The code that shares state across goroutines, repeated under the race
# detector: a race shows only when the schedule cooperates, so one run
# proves little. The fan-out contract, the sharded set algebra, index
# fill, the index's shared caches, cell partition, K, E_G, component and
# Pr-sum kernels, the engine's token gate, logic's forceParallel
# differential tests, the model's tables shared by concurrent evaluators
# and kept empty by aborted builds, and fut's and prior's one partition
# shared by every agent, ten times each.
go test -race -count=10 -run '^(TestAgentFreeBlocksBuiltOnce|TestParRangePartitions|TestParRangeSerialWhenOneWorker|TestSelectAndComplementTailBits|TestDenseAlgebraParMatchesSerial|TestBuildIndexParallelMatchesSerial|TestIndexConcurrent|TestCellsParMatchesSerial|TestKnowExtensionKernel|TestEveryoneKernel|TestCommonCellsComponents|TestWeightInKernel|TestGateConcurrent|TestDifferentialParallelVsReference|TestDifferentialParallelScaleSystem|TestConcurrentSharedIndex|TestConcurrentParallelSharedIndex|TestPropExtensionsSurviveReset|TestAbortedSpaceBuildPublishesNothing|TestBlocksPanicReleasesWorkers|TestCommonCellsMatchFixpoint|TestPrSmallerSide)$' ./internal/core ./internal/system ./internal/logic
# The service's side of the same sharing: every evaluation makes its own
# evaluator, so a session's model is the only evaluation state concurrent
# checks share. Mixed concurrent traffic, evaluations over one model, a
# singleflight follower that outlives its leader's cancellation, and
# search jobs whose context, evaluation slot, job token and done channel
# race CancelSearch and DrainSearches, ten times each.
go test -race -count=10 -run '^(TestConcurrentMixedRequests|TestColdCheckoutSharesModel|TestFollowerOutlivesCanceledLeader|TestSearchOverloadAndDrain|TestSearchCancelAndResume|TestSearchCancelStopsFactEvaluation|TestSearchesLeaveCheckSlots)$' ./internal/service
# Smoke the layer benchmarks: every benchmark once, each in a process of
# its own, the 100k scale tier at w2 and an introcoin cold/warm restart
# cycle, parsed into a temporary file. A broken or bit-rotted benchmark, a
# broken parser or a missing floor row fails verification without paying
# for a full `make bench`.
./scripts/bench.sh smoke
# The two durable formats, named as their own gate, independent of
# whatever subset the full -race run happened to exercise above: session
# snapshots (the codec's round trips and typed rejections, and encode →
# disk → decode → byte-identical warm answers), and search checkpoints
# (every truncation and bit flip refused by type, damaged files skipped
# and kept, resume across a restart to the uninterrupted optimum).
go test -race -count=1 -run 'Snapshot|Restore|WarmRestart|RoundTrip|Decode|Checkpoint|Resume' ./internal/snapshot ./internal/search ./internal/service ./cmd/kpad
# Smoke the end-to-end oracle: kpabench drives a real kpad over a
# 16384-point system with unequal run weights and checks every verdict
# against its own independent model checker. Two short runs, one per
# workload; the build and its output stay in the git-ignored .bench_build/.
for workload in hit miss; do
	result="$(bash kpabench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
	echo "$result"
	echo "$result" | grep -q '"correct":true'
	echo "$result" | grep -q '"failed":0[,}]'
done
