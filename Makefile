# Development targets. `make check` is the full gate: vet, lint, build,
# the race detector across every package (the determinism golden tests
# run the sharded pipeline under -race), the whole suite (tier-1: `go
# build ./... && go test ./...`), then the identity cells that drive the
# binaries under -race.
#
# Budget: 18 minutes for `make check` on 2 vCPUs, about twice what it
# takes there with a warm build cache (race 7.5–8.5 min, internal/study
# 5.5–6 of them; test ~1 min; identity 40 s; vet, lint and build 15 s).
# CI enforces it as the timeout-minutes of the three steps that run
# these targets: lint 2, identity 4, vet + build + race + test 12.

GO ?= go

.PHONY: check vet lint loc build race test identity fuzz-smoke bench-obs bench-pipeline bench-retry bench bench-segstore bench-trace bench-colagg bench-ship bench-studyd

check: vet lint build race test identity

vet:
	$(GO) vet ./...

# edgelint enforces the repo's determinism, error-checking, poisoning
# and row-free contracts (DESIGN.md §8): the four analyzers that have
# each caught something in the repo's history (EXPERIMENTS.md "edgelint
# roster"). Batch ownership is checked at run time by the leak-checked
# tests instead (DESIGN.md §13). Every run type-checks the module from
# source and analyzes every package, each on its own; nothing is
# remembered between runs. -stats prints what each analyzer cost.
lint:
	$(GO) run ./cmd/edgelint -stats .

# Code-only lines per package: non-test Go outside testdata/, less
# blank and comment-only lines — the count simplicity PRs quote in
# CHANGES.md. A report, not a `make check` gate.
loc:
	@for d in internal/* cmd/*; do \
		printf '%6d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | grep -vE '^\s*$$' | grep -vE '^\s*//' | wc -l) $$d; \
	done

build:
	$(GO) build ./...

# internal/study alone runs 5–6 minutes under the race detector on two
# cores — within reach of go test's default 10-minute per-package
# timeout on a slower machine — so the target sets its own.
race:
	$(GO) test -race -timeout 30m ./...

# The suite again without the race detector, about a seventh of race's
# time: it is tier-1 itself, and the only run of the allocation counts
# that build without -race alone (the `!race` files of internal/tdigest,
# internal/analysis and internal/segstore).
test:
	$(GO) test ./...

# The byte-identity cells, live under the race detector: every producer
# built once with -race, then one table of cells (cmd/edgeident/cells.go)
# — the dataset write at workers 4/2/1 clean and under two plans, traced
# and not; replays at workers 4/1 and through the row oracle under
# filters, -cdf and a traced sink plan; the segcat export and re-import;
# edgestat; a generated world's traced chaos study and `edgetrace
# causes`; dense worlds' -cdf and -deagg reports; two PoPs shipping
# through a dup/drop wire to edgemerged and to a wire-mode edgestudyd;
# the live daemon drained at workers 1/2/4, clean and under both plans,
# then interrupted. Each cell must equal the cells its row names, exit 0
# within its deadline, leave exactly its expected files and print
# exactly its one wall-clock line. One line per cell.
# `go run ./cmd/edgeident -parent REV` compares every cell with REV's.
identity:
	$(GO) run ./cmd/edgeident

# A short burst on each fuzz target; the invariants live next to the
# targets (tdigest merge structure, compaction and buffer sort equal to
# their stable references, hdratio classification ranges, the integer
# equation 1 equal to its float form and Tally's counts equal to
# Evaluate's, segment decode never panics on hostile bytes, ship frame
# decode never panics on hostile streams, comparison series extended at
# any cuts of a stream equal the from-nothing ones, segment encode and
# segment decode each equal to the per-column closures they replaced).
# A new interesting input is minimized for at most 2 s: at the default
# 60 s one minimization would outlast the whole burst.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTDigestMerge -fuzztime 10s -fuzzminimizetime 2s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzProcessMatchesStableReference -fuzztime 10s -fuzzminimizetime 2s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzSortByMean -fuzztime 10s -fuzzminimizetime 2s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzSeriesExtend -fuzztime 10s -fuzzminimizetime 2s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzHDRatioClassify -fuzztime 10s -fuzzminimizetime 2s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzIdealRoundsMatchesLog2 -fuzztime 10s -fuzzminimizetime 2s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzTallyMatchesEvaluate -fuzztime 10s -fuzzminimizetime 2s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 10s -fuzzminimizetime 2s ./internal/segstore/
	$(GO) test -run '^$$' -fuzz FuzzEncodeSegmentMatchesOracle -fuzztime 10s -fuzzminimizetime 2s ./internal/segstore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMatchesOracle -fuzztime 10s -fuzzminimizetime 2s ./internal/segstore/
	$(GO) test -run '^$$' -fuzz FuzzShipFrameDecode -fuzztime 10s -fuzzminimizetime 2s ./internal/ship/
	$(GO) test -run '^$$' -fuzz FuzzStudydQueryParams -fuzztime 10s -fuzzminimizetime 2s ./internal/studyd/

# Documents the obs fast-path cost on collector ingest (EXPERIMENTS.md
# records the measured overhead; the bar is <5%).
bench-obs:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem -count 5 ./internal/collector/

# The sharded-pipeline scaling curve (EXPERIMENTS.md records measured
# samples/s per worker count; flat on single-core machines).
bench-pipeline:
	$(GO) test -run '^$$' -bench BenchmarkPipelineThroughput -benchtime 3x .

# The recovery layer's no-fault cost per guarded write (EXPERIMENTS.md
# records the measured overhead of a retry-wrapped call vs a bare one).
bench-retry:
	$(GO) test -run '^$$' -bench BenchmarkRetryOverhead -benchmem -count 5 ./internal/faults/

# Columnar scan vs JSONL scan over the same rows (EXPERIMENTS.md and
# BENCH_segstore.json record the compression ratio and decode
# throughput).
bench-segstore:
	$(GO) test -run '^$$' -bench 'BenchmarkSegstoreScan|BenchmarkJSONLScan' -benchmem -count 3 ./internal/segstore/

# The flight recorder's hot-path cost: traced vs untraced ingest
# (EXPERIMENTS.md and BENCH_trace.json record the measured overhead;
# the bar is <5% and zero allocations per event).
bench-trace:
	$(GO) test -run '^$$' -bench BenchmarkTraceOverhead -benchmem -count 5 ./internal/trace/

# Batch-path aggregation vs the row oracle over the same seg corpus
# (EXPERIMENTS.md and BENCH_colagg.json record samples/s and the
# allocation delta).
bench-colagg:
	$(GO) test -run '^$$' -bench 'BenchmarkColagg(Rows|Batches)$$' -benchmem -benchtime 10x -count 2 ./internal/study/

# One PoP's dataset shipped over loopback TCP into a fresh spool,
# durable ack-log and manifest commits included (EXPERIMENTS.md records
# the measured per-slot cost of crash-safe shipping).
bench-ship:
	$(GO) test -run '^$$' -bench BenchmarkShipThroughput -benchmem -count 3 ./internal/ship/

# The daemon's serving fast paths: a fresh cache hit vs a stale hit
# that kicks off background revalidation (EXPERIMENTS.md and
# BENCH_studyd.json record the measured latencies; stale serves must
# stay near hit cost — readers never wait for re-aggregation).
bench-studyd:
	$(GO) test -run '^$$' -bench BenchmarkStudydServe -benchmem -count 3 ./internal/studyd/

bench:
	$(GO) test -bench . -benchmem
