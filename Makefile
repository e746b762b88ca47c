# Build, test and benchmark entry points. CI runs `make test`, the
# race detector (`make race`), the copy-on-write stress suite (`make
# stress`), the spill suite (`make spill`), the parallel-executor suite
# (`make par`), the property oracles (`make props`), the crash-recovery
# suite (`make crash`), the server suite (`make serve-race`), the bench
# smoke, the fuzz smoke and the docs smoke. The standing end-to-end
# benchmark is the separate module in bench/ (`go -C bench run .`, see
# bench/README.md); `make bench-compare BASE=<rev> [WORKLOAD=<name>]`
# builds it for <rev> and for the working tree's tracked changes, each
# from a `git archive` copy in a temporary directory, runs ten pairs on
# seeds 1-10 (odd seeds run base first, even seeds change first) into
# bench-compare-out/base and bench-compare-out/change, saving
# /proc/loadavg as bench-compare-out/loadavg-start and loadavg-end
# before and after, and prints `bench -compare` of the two sets; `make
# bench-record PR=<n> BASE=<rev>` keeps them, with the host's CPU and
# those load averages, as BENCH_<n>.json. `make loc` prints each package's
# non-test Go lines, blank and comment-only lines excluded, and the
# total: the size yardstick of a simplification.

.PHONY: all test vet race stress spill crash fuzz par props serve-race bench-smoke bench-compare bench-record docs-smoke loc

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

# The randomized reader/writer interleaving stress, the commit
# equivalence property test and the journal-scoped invariant's
# equivalence to the whole-graph Validate, by name, under the race
# detector — the explicit CI gate for the copy-on-write commit pipeline
# (all also run as part of `make race`).
stress:
	go test -race -count=2 -run 'TestStoreReaderWriterStress|TestCommitPathsEquivalent|TestStoreConcurrentReadersSeeCommittedEpochsOnly|TestCheckDanglingMatchesValidate' ./internal/graph
	go test -race -run 'TestConcurrent|TestSession' ./cypher

# The spill suites under the race detector: forced-spill equivalence
# (tiny budgets make every barrier take the external-sort / hash-
# partition path), temp-file cleanup on error and early-LIMIT close,
# each barrier closed mid-spill (the Distinct and the Aggregate also
# part-way through replaying their merged runs) with no file left and
# the budget returned, ORDER BY's scope over a spilling Sort, ORDER BY …
# SKIP … LIMIT against the sliced unbounded sort, a spilling bounded
# Sort cutting its compacted runs to the bound, and the executor sweep
# over the script corpus.
spill:
	go test -race -run 'TestExternalSort|TestSpilling|TestSpillFiles|TestSpillCodec|TestOperator|TestBarrierCloseMidSpillFreesFiles' ./internal/plan
	go test -race -run 'TestTinyBudgetSpillEquivalence|TestBudgetBoundsBarrierPeak|TestExecutorTriEquivalence|TestOrderByScope|TestSortLimitIsSliceOfSort|TestSpillingBoundedSortCutsRuns' ./internal/core
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script
	go test -race -run 'TestWithMemoryBudget|TestProfile' ./cypher

# The morsel-parallel executor gate, under the race detector: the
# parallelism sweep (degrees 1/2/8, with and without a spill-forcing
# budget, bit-identical output required), error/cancellation draining
# with zero live spill files, the barrier memory bound at degrees 1/2/8
# (the Sort's peak and spill runs must equal the serial run's), ORDER
# BY's scope over a projection run per morsel, ORDER BY … SKIP … LIMIT
# against the sliced unbounded sort, the concurrent spill-registry and budget bookkeeping hammer, anchor chunks
# of one match plan enumerated concurrently (their concatenation must be the
# serial enumeration), and the script-corpus sweep whose configs
# include the parallel executor. Degrees are set explicitly in the
# tests, so this gate is meaningful even on single-core CI runners.
par:
	go test -race -run 'TestParallel|TestBudgetBoundsBarrierPeak|TestOrderByScope|TestSortLimitIsSliceOfSort' ./internal/core
	go test -race -run 'TestSpillBookkeepingConcurrent|TestBudgetShrinkClampConcurrent' ./internal/plan
	go test -race -run 'TestAnchorChunksConcurrent' ./internal/match
	go test -race -run 'TestCorpusExecutorSweep' ./internal/script

# The engine's specification, under the race detector: the seeded
# property oracles (configuration differential, metamorphic pairs,
# Section 8.2 clause composition, revised driving-table permutation
# invariance; a failure prints its seed and statement), the statement-
# boundary invariant checked against the whole-graph Validate over the
# same statements, and the golden sweeps that hold the pinned answers of
# the deleted materializing interpreter. Four tests specify the update
# barrier, which hands its clause function a batch of its own that the
# clause may write in place: the caller's driving table must come out
# untouched, the reported update stats (MERGE's, and SET's and
# REMOVE's by kind in both dialects) must be the graph's actual deltas,
# and the columns the barrier drops because nothing reads them again
# (and the deleted references revised DELETE leaves in them) must not
# show in any answer.
# Three more specify preparing a statement once (its dialect verdict
# and folded constants are worked out with the statement's text and
# reused by every execution): folded items keep their column names,
# an invalid statement gives the same error on every path, cache hit
# or miss, embedded or served, and one AST prepared again and again on
# engines of both dialects gives the same results. Two more specify the
# statement cache's templates: every statement of the script corpus and
# of the generator, in both dialects, respelled with other values in
# its inline property maps, answers through the original's template
# exactly as through a fresh engine (columns, rows in order, stats,
# error text, graph.Identical); a user parameter named like a binding
# position, a statement the dialect refuses (never shared) and EXPLAIN
# and PROFILE (which print the text's own literals) are pinned.
props:
	go test -race -count=1 -run 'TestOracle|TestClauseCompositionality|TestStatementInvariantMatchesValidate|TestLimitNeverStopsUpdates|TestGoldenCorpus|TestLegacyGoldenCorpus|TestStreamingMatchesMaterializing|TestExecutorTriEquivalenceGolden|TestStreamingPropertyRandomQueries|TestExecuteWithTableLeavesDrivingTableUntouched|TestMergeStatsMatchGraphDeltas|TestUpdateStatsMatchGraphDeltas|TestUpdateBarrierLiveColumns|TestPrepare|TestTemplate' ./internal/core
	go test -race -count=1 -run 'TestCorpusExecutorSweep' ./internal/script

# The server gate, under the race detector: the wire-protocol
# conformance scripts, the concurrent-client soak (mixed auto-commit /
# explicit-transaction / rollback workloads with exact isolation
# accounting), drain-under-load, and the loopback wire-equivalence
# sweep that requires served results to be bit-identical to the
# embedded session over the whole script corpus, the client's
# one-request-frame check, the wire codec (the client's and the
# server's message layers checked against each other, the tagged value
# codec checked against encoding/json, allocations per served point
# read, one statement-cache lookup per RUN), and the plan slots shared
# by every execution of a text (cross-session hits, plans evicted with
# their statements, bound-set replacement, sessions and parallel
# workers reading one slot while a writer forces replans, 5 000 unique
# texts of one shape served by one template without evicting other
# texts, sessions making and sharing one template concurrently; and the
# planner-level drift and index-epoch checks).
serve-race:
	go test -race -count=1 ./internal/server ./internal/tagjson ./cypherclient
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
# records, binary spill/WAL values, the graph JSON snapshot, the tagged
# JSON scanner (against encoding/json), and both ends of the wire — the
# server's frames and value tags, the client's replies. Each must reject
# or round-trip canonically, never panic.
# The expression fuzzer additionally proves folding is invisible:
# whatever parses evaluates to the same value/error folded (without a
# graph or parameters, as a statement is prepared) or not. The template
# fuzzer primes the statement cache with one text and looks up another:
# a text that parses is served as a statement that prints, bindings
# substituted, like the text parsed and prepared on its own; one that
# does not parse misses and gets the parser's error byte for byte.
fuzz:
	go test -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzBinaryValueRoundTrip -fuzztime 15s ./internal/graph
	go test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 15s ./cypher
	go test -run '^$$' -fuzz FuzzWireFrameDecode -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzWireValueRoundTrip -fuzztime 15s ./internal/server
	go test -run '^$$' -fuzz FuzzScannerMatchesEncodingJSON -fuzztime 15s ./internal/tagjson
	go test -run '^$$' -fuzz FuzzReplyDecode -fuzztime 15s ./cypherclient
	go test -run '^$$' -fuzz FuzzExprEval -fuzztime 15s ./internal/expr
	go test -run '^$$' -fuzz FuzzTemplateMatchesParse -fuzztime 15s ./internal/core

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
# (tracked changes, via `git stash create`). Both sides build from
# `git archive` copies in a temporary directory that is removed on
# exit; the result sets stay in bench-compare-out/. Which side runs
# first alternates with the seed, so drift during the runs (heat, load
# from neighbours) falls on both sides alike. Exits non-zero if
# -compare finds a regression.
BASE ?=
WORKLOAD ?= all
OUT = $(CURDIR)/bench-compare-out
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [WORKLOAD=<name>]"; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf $$tmp' EXIT; \
	change=$$(git stash create); change=$${change:-HEAD}; \
	mkdir $$tmp/base $$tmp/change; \
	git archive $(BASE) | tar -x -C $$tmp/base; \
	git archive $$change | tar -x -C $$tmp/change; \
	go -C $$tmp/base/bench build -o $$tmp/bench-base .; \
	go -C $$tmp/change/bench build -o $$tmp/bench-change .; \
	rm -rf $(OUT)/base $(OUT)/change; \
	mkdir -p $(OUT); cat /proc/loadavg > $(OUT)/loadavg-start 2>/dev/null || true; \
	for s in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((s % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			(cd $$tmp/$$side/bench && $$tmp/bench-$$side -workload $(WORKLOAD) -seed $$s -out $(OUT)/$$side); \
		done; \
	done; \
	cat /proc/loadavg > $(OUT)/loadavg-end 2>/dev/null || true; \
	$$tmp/bench-change -compare $(OUT)/base/results.jsonl $(OUT)/change/results.jsonl

# Records the last bench-compare as BENCH_<PR>.json at the repository
# root: the environment, both commits, and per workload and gated metric
# both sides' per-run values, medians, quartiles, pair wins and the
# judge's verdict. CHANGE defaults to HEAD.
PR ?=
CHANGE ?= HEAD
bench-record:
	@test -n "$(PR)" -a -n "$(BASE)" || { echo "usage: make bench-record PR=<n> BASE=<rev> [CHANGE=<rev>]"; exit 2; }
	go run ./cmd/bench-record -base $$(git rev-parse $(BASE)) -change $$(git rev-parse $(CHANGE)) -out BENCH_$(PR).json $(OUT)/base/results.jsonl $(OUT)/change/results.jsonl

# Executes every runnable snippet of docs/language.md and the exported-
# symbol godoc check, so documentation cannot rot. Both also run as part
# of the ordinary test suite; this target is the explicit CI gate.
docs-smoke:
	go test ./internal/script -run TestLanguageReferenceSnippets
	go test ./internal/doccheck

# Non-test Go lines per package of this module (bench/ is a separate
# module), excluding blank lines and lines holding only a // comment.
loc:
	@for d in $$(go list -f '{{.Dir}}' ./...); do \
		n=$$(cat /dev/null $$(ls $$d/*.go | grep -v '_test\.go$$') | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
		rel=$${d#$(CURDIR)}; rel=$${rel#/}; \
		printf '%6d  %s\n' $$n $${rel:-.}; \
	done | awk '{ print; total += $$1 } END { printf "%6d  total\n", total }'
