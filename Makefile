# Build, test and benchmark entry points. CI runs `make test`, the
# race detector (`make race`), the copy-on-write stress suite (`make
# stress`), the spill suite (`make spill`), the parallel-executor suite
# (`make par`), the property oracles (`make props`), the crash-recovery
# suite (`make crash`), the server suite (`make serve-race`), the bench
# smoke, the fuzz smoke and the docs smoke. The standing end-to-end
# benchmark is the separate module in bench/ (`go -C bench run .`, see
# bench/README.md); `make bench-compare BASE=<rev> [WORKLOAD=<name>]`
# builds it for <rev> and for the working tree's tracked changes, each in
# a temporary git worktree, runs ten alternating pairs on seeds 1-10
# into bench-compare-out/base and bench-compare-out/change, and prints
# `bench -compare` of the two sets.

.PHONY: all test vet race stress spill crash fuzz par props serve-race bench-smoke bench-compare docs-smoke

all: test

test:
	go build ./...
	go test ./...

vet:
	go vet ./...

# The concurrency suite (snapshot stores, sessions, the copy-on-write
# commit-path equivalence property test and the reader/writer stress
# tests) must stay clean under the race detector.
race:
	go test -race ./...

# The randomized reader/writer interleaving stress and the three-path
# commit equivalence property test, by name, under the race detector —
# the explicit CI gate for the copy-on-write commit pipeline (both also
# run as part of `make race`).
stress:
	go test -race -count=2 -run 'TestStoreReaderWriterStress|TestCommitPathsEquivalent|TestStoreConcurrentReadersSeeCommittedEpochsOnly' ./internal/graph
	go test -race -run 'TestConcurrent|TestSession' ./cypher

# The spill suites under the race detector: forced-spill equivalence
# (tiny budgets make every barrier take the external-sort / hash-
# partition path), temp-file cleanup on error and early-LIMIT close,
# and the executor sweep over the script corpus.
spill:
	go test -race -run 'TestExternalSort|TestSpilling|TestSpillFiles|TestSpillCodec|TestOperator' ./internal/plan
	go test -race -run 'TestTinyBudgetSpillEquivalence|TestBudgetBoundsBarrierPeak|TestExecutorTriEquivalence' ./internal/core
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script
	go test -race -run 'TestWithMemoryBudget|TestProfile' ./cypher

# The morsel-parallel executor gate, under the race detector: the
# parallelism sweep (degrees 1/2/8, with and without a spill-forcing
# budget, bit-identical output required), error/cancellation draining
# with zero live spill files, the concurrent spill-registry and budget
# bookkeeping hammer, and the script-corpus sweep whose configs include
# the parallel executor. Degrees are set explicitly in the tests, so
# this gate is meaningful even on single-core CI runners.
par:
	go test -race -run 'TestParallel' ./internal/core
	go test -race -run 'TestSpillBookkeepingConcurrent|TestBudgetShrinkClampConcurrent' ./internal/plan
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script

# The engine's specification, under the race detector: the seeded
# property oracles (configuration differential, metamorphic pairs,
# Section 8.2 clause composition, revised driving-table permutation
# invariance; a failure prints its seed and statement), and the golden
# sweeps that hold the pinned answers of the deleted materializing
# interpreter.
props:
	go test -race -count=1 -run 'TestOracle|TestClauseCompositionality|TestLimitNeverStopsUpdates|TestGoldenCorpus|TestLegacyGoldenCorpus|TestStreamingMatchesMaterializing|TestExecutorTriEquivalenceGolden|TestStreamingPropertyRandomQueries' ./internal/core
	go test -race -count=1 -run 'TestCorpusExecutorSweep' ./internal/script

# The server gate, under the race detector: the wire-protocol
# conformance scripts, the concurrent-client soak (mixed auto-commit /
# explicit-transaction / rollback workloads with exact isolation
# accounting), drain-under-load, and the loopback wire-equivalence
# sweep that requires served results to be bit-identical to the
# embedded session over the whole script corpus, the client's
# one-request-frame check, and the shared plan cache (cross-session
# hits, LRU eviction, concurrent stores).
serve-race:
	go test -race -count=1 ./internal/server ./cypherclient
	go test -race -run 'TestCorpusWireEquivalence|TestWireValueExtremes' ./internal/script
	go test -race -run 'TestPlanCache' ./cypher
	go test -race -run 'TestPlanCache' ./internal/match

# The durability gate: the kill-at-random-point property test, 250
# randomized iterations under the race detector. Each iteration runs a
# random workload against a store whose filesystem dies at a random
# byte offset, recovers with the real filesystem, and requires the
# recovered graph to be bit-identical to a published epoch (and, under
# fsync-per-commit, no older than the last successful commit).
crash:
	CRASH_ITERS=250 go test -race -count=1 -run TestKillAtRandomPointRecovery ./internal/graph

# Short fuzz runs over the codecs that parse untrusted bytes: WAL
# records, binary spill/WAL values, the graph JSON snapshot, and the
# server's wire frames and value tags (the only codec fed by remote
# peers). Each must reject or round-trip canonically, never panic.
# The expression fuzzer additionally proves folding is invisible:
# whatever parses evaluates to the same value/error folded or not.
fuzz:
	go test -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzBinaryValueRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 15s ./cypher
	go test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzWireValueRoundTrip -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzExprEval -fuzztime 15s ./internal/expr

# One iteration of every B-benchmark, then the bench/ module's vet and
# smoke test (every workload at a small scale): catches panics, broken
# bench inputs and engine API changes that break bench/ — a separate
# module that `go build ./...` does not compile — on every push without
# CI paying for real measurement.
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkB' -benchtime 1x .
	go -C bench vet ./...
	go -C bench test ./...

# Paired runs of the standing benchmark, BASE against the working tree
# (tracked changes, via `git stash create`). Both sides build in
# temporary worktrees that are removed on exit; the result sets stay in
# bench-compare-out/. Exits non-zero if -compare finds a regression.
BASE ?=
WORKLOAD ?= all
OUT = $(CURDIR)/bench-compare-out
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [WORKLOAD=<name>]"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force $$tmp/base 2>/dev/null; git worktree remove --force $$tmp/change 2>/dev/null; rm -rf $$tmp' EXIT; \
	change=$$(git stash create); change=$${change:-HEAD}; \
	git worktree add --quiet --detach $$tmp/base $(BASE); \
	git worktree add --quiet --detach $$tmp/change $$change; \
	go -C $$tmp/base/bench build -o $$tmp/bench-base .; \
	go -C $$tmp/change/bench build -o $$tmp/bench-change .; \
	rm -rf $(OUT)/base $(OUT)/change; \
	for s in 1 2 3 4 5 6 7 8 9 10; do \
		(cd $$tmp/base/bench && $$tmp/bench-base -workload $(WORKLOAD) -seed $$s -out $(OUT)/base); \
		(cd $$tmp/change/bench && $$tmp/bench-change -workload $(WORKLOAD) -seed $$s -out $(OUT)/change); \
	done; \
	$$tmp/bench-change -compare $(OUT)/base/results.jsonl $(OUT)/change/results.jsonl

# Executes every runnable snippet of docs/language.md and the exported-
# symbol godoc check, so documentation cannot rot. Both also run as part
# of the ordinary test suite; this target is the explicit CI gate.
docs-smoke:
	go test ./internal/script -run TestLanguageReferenceSnippets
	go test ./internal/doccheck
