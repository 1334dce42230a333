# Development targets. `make check` is the full gate: vet, lint, build,
# the race detector across every package (the determinism golden tests
# run the sharded pipeline under -race), the whole suite (tier-1: `go
# build ./... && go test ./...`), then the live gates that drive the
# binaries under -race.

GO ?= go

# The fault plans and daemon flags the live gates below run under.
CHAOS_PLAN   = seed=7;sink-transient=0.01;sink-permanent=0.001;truncate=0.1;corrupt=0.03;fail-group=2;outage=fra:10-30;retries=4;retry-base=50us
STUDYD_FLAGS = -seed 7 -groups 8 -days 2 -spw 10
STUDYD_PLAN  = seed=7;sink-transient=0.01;fail-group=2;outage=fra:10-30;retries=4;retry-base=50us

.PHONY: check vet lint loc build race test seg-race trace-race colagg-race pop-race studyd-race fuzz-smoke bench-obs bench-pipeline bench-retry bench bench-segstore bench-trace bench-colagg bench-ship bench-studyd

check: vet lint build race test seg-race trace-race colagg-race pop-race studyd-race

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

# internal/study alone runs ~10 minutes under the race detector on two
# cores — right at go test's default per-package timeout — so the target
# sets its own.
race:
	$(GO) test -race -timeout 30m ./...

test:
	$(GO) test ./...

# The dataset round trip under the race detector: write a columnar
# dataset at four workers and again at one (three goroutines, each a
# stage behind the other: simulate, encode, commit) — the two
# directories must be byte-identical — then analyse it with a time
# filter pushed down to the manifest at one worker (one decode goroutine
# reading ahead of the fold, one aggregation shard) and at four. The two
# reports must be byte-identical once line 2, the wall-clock line, is
# dropped.
seg-race:
	rm -rf .seg-race
	mkdir -p .seg-race
	$(GO) run -race ./cmd/edgesim -seed 3 -groups 8 -days 2 -spw 12 -workers 4 -o .seg-race/ds
	$(GO) run -race ./cmd/edgesim -seed 3 -groups 8 -days 2 -spw 12 -workers 1 -o .seg-race/ds1
	diff -r .seg-race/ds .seg-race/ds1
	$(GO) run -race ./cmd/edgereport -in .seg-race/ds -workers 1 -from 24h > .seg-race/w1.txt
	$(GO) run -race ./cmd/edgereport -in .seg-race/ds -workers 4 -from 24h > .seg-race/w4.txt
	sed 2d .seg-race/w1.txt > .seg-race/w1.body
	sed 2d .seg-race/w4.txt | cmp .seg-race/w1.body -
	rm -rf .seg-race

# The flight recorder's determinism golden, live: two traced chaos
# studies under the race detector at different worker counts must
# produce byte-identical trace files (DESIGN.md §11). Every fault
# surface fires (sink retry, quarantine, batch truncation/drop, a PoP
# outage) and the ledger must reconcile (`edgetrace causes`). The trace
# is the only file a run writes beside it: physical timing lives on
# /metrics, never in a sidecar.
trace-race:
	rm -rf .trace-race
	mkdir -p .trace-race
	$(GO) run -race ./cmd/edgereport -groups 8 -days 1 -spw 12 -workers 4 -trace .trace-race/w4.trace \
		-fault-plan "$(CHAOS_PLAN)" \
		> /dev/null
	$(GO) run -race ./cmd/edgereport -groups 8 -days 1 -spw 12 -workers 1 -trace .trace-race/w1.trace \
		-fault-plan "$(CHAOS_PLAN)" \
		> /dev/null
	cmp .trace-race/w1.trace .trace-race/w4.trace
	test ! -e .trace-race/w4.trace.timing
	$(GO) run ./cmd/edgetrace causes .trace-race/w4.trace > /dev/null
	rm -rf .trace-race

# The columnar-aggregation identity, live under the race detector: the
# same dataset analysed through the batch hot path (ScanColumns ->
# AddBatch, 4 shard workers), through the row oracle (-row-oracle,
# sequential) and — exported to JSONL and imported back by segcat, both
# directions of the one JSONL door — through the sequential replay of
# the re-imported copy must render byte-identical reports. Only the
# wall-clock line differs between runs, so it is stripped before cmp.
colagg-race:
	rm -rf .colagg-race
	mkdir -p .colagg-race
	$(GO) run -race ./cmd/edgesim -seed 3 -groups 8 -days 2 -spw 12 -workers 4 -o .colagg-race/ds
	$(GO) run -race ./cmd/edgereport -in .colagg-race/ds -workers 4 | grep -v '^Generated and analysed' > .colagg-race/batch.txt
	$(GO) run -race ./cmd/edgereport -in .colagg-race/ds -row-oracle -workers 1 | grep -v '^Generated and analysed' > .colagg-race/rows.txt
	cmp .colagg-race/batch.txt .colagg-race/rows.txt
	$(GO) run -race ./cmd/segcat -in .colagg-race/ds -o .colagg-race/ds.jsonl
	$(GO) run -race ./cmd/segcat -in .colagg-race/ds.jsonl -o .colagg-race/ds2
	$(GO) run -race ./cmd/edgereport -in .colagg-race/ds2 -workers 1 | grep -v '^Generated and analysed' > .colagg-race/reimported.txt
	cmp .colagg-race/batch.txt .colagg-race/reimported.txt
	rm -rf .colagg-race

# The multi-PoP shipping invariant, live under the race detector: two
# edgepopd processes generate disjoint shares of the world and ship
# them to an edgemerged spool over a unix socket while the wire plan
# injects duplicate deliveries and connection-severing drops. The
# report rendered from the merged spool must be byte-identical to the
# single-process run's (only the wall-clock line is stripped). The
# kill-and-restart variants of this invariant run in internal/ship's
# tests (`race`).
pop-race:
	rm -rf .pop-race
	mkdir -p .pop-race
	$(GO) run -race ./cmd/edgesim -seed 3 -groups 9 -days 2 -spw 12 -workers 4 -o .pop-race/golden
	$(GO) build -race -o .pop-race/edgepopd ./cmd/edgepopd
	$(GO) build -race -o .pop-race/edgemerged ./cmd/edgemerged
	./.pop-race/edgemerged -o .pop-race/spool -listen .pop-race/merge.sock -expect-pops 2 & \
	mpid=$$!; \
	sleep 1; \
	./.pop-race/edgepopd -seed 3 -groups 9 -days 2 -spw 12 -workers 4 -o .pop-race/pop0 -pop 0 -pops 2 -merger .pop-race/merge.sock \
		-ship-fault-plan "seed=9;ship-dup=0.4;ship-drop=0.2;retries=12;retry-base=1ms" & \
	p0=$$!; \
	./.pop-race/edgepopd -seed 3 -groups 9 -days 2 -spw 12 -workers 4 -o .pop-race/pop1 -pop 1 -pops 2 -merger .pop-race/merge.sock \
		-ship-fault-plan "seed=9;ship-dup=0.4;ship-drop=0.2;retries=12;retry-base=1ms" & \
	p1=$$!; \
	wait $$p0 && wait $$p1 && wait $$mpid
	$(GO) run -race ./cmd/edgereport -in .pop-race/golden -workers 4 | grep -v '^Generated and analysed' > .pop-race/golden.txt
	$(GO) run -race ./cmd/edgereport -in .pop-race/spool -workers 4 | grep -v '^Generated and analysed' > .pop-race/merged.txt
	cmp .pop-race/golden.txt .pop-race/merged.txt
	rm -rf .pop-race

# The always-on daemon's keystone invariant, live under the race
# detector: an edgestudyd live run (continuous ingest, logical-clock
# window sealing, chunk commits while serving HTTP) must drain into a
# spool — and serve a /report — byte-identical to the golden batch
# pipeline's output for the same flags, at several worker counts,
# clean and under a chaos plan. The daemon is polled over its own
# -fetch client (no curl dependency), interrupted with SIGINT once
# drained, and must exit the sigctl drain path cleanly.
studyd-race:
	rm -rf .studyd-race
	mkdir -p .studyd-race
	$(GO) build -race -o .studyd-race/edgestudyd ./cmd/edgestudyd
	$(GO) run -race ./cmd/edgesim $(STUDYD_FLAGS) -workers 4 -o .studyd-race/golden
	$(GO) run -race ./cmd/edgesim $(STUDYD_FLAGS) -workers 4 -o .studyd-race/golden-chaos -fault-plan "$(STUDYD_PLAN)"
	$(GO) run -race ./cmd/edgereport -in .studyd-race/golden -workers 4 | grep -v '^Generated and analysed' > .studyd-race/golden.txt
	$(GO) run -race ./cmd/edgereport -in .studyd-race/golden-chaos -workers 4 | grep -v '^Generated and analysed' > .studyd-race/golden-chaos.txt
	for w in 1 2 4; do \
		rm -f .studyd-race/addr; \
		./.studyd-race/edgestudyd $(STUDYD_FLAGS) -workers $$w -o .studyd-race/spool-w$$w -addr-file .studyd-race/addr & \
		dpid=$$!; \
		until [ -s .studyd-race/addr ]; do sleep 0.1; done; \
		addr=$$(cat .studyd-race/addr); \
		until ./.studyd-race/edgestudyd -fetch "http://$$addr/healthz" | grep -q '"state": "drained"'; do sleep 0.2; done; \
		./.studyd-race/edgestudyd -fetch "http://$$addr/report" > .studyd-race/served-w$$w.txt || exit 1; \
		kill -INT $$dpid; wait $$dpid || exit 1; \
		cmp .studyd-race/golden.txt .studyd-race/served-w$$w.txt || exit 1; \
		diff -r .studyd-race/golden .studyd-race/spool-w$$w || exit 1; \
	done
	rm -f .studyd-race/addr; \
	./.studyd-race/edgestudyd $(STUDYD_FLAGS) -workers 4 -fault-plan "$(STUDYD_PLAN)" -o .studyd-race/spool-chaos -addr-file .studyd-race/addr & \
	dpid=$$!; \
	until [ -s .studyd-race/addr ]; do sleep 0.1; done; \
	addr=$$(cat .studyd-race/addr); \
	until ./.studyd-race/edgestudyd -fetch "http://$$addr/healthz" | grep -q '"state": "drained"'; do sleep 0.2; done; \
	./.studyd-race/edgestudyd -fetch "http://$$addr/report" > .studyd-race/served-chaos.txt || exit 1; \
	kill -INT $$dpid; wait $$dpid || exit 1; \
	cmp .studyd-race/golden-chaos.txt .studyd-race/served-chaos.txt || exit 1; \
	diff -r .studyd-race/golden-chaos .studyd-race/spool-chaos
	rm -rf .studyd-race

# A short burst on each fuzz target; the invariants live next to the
# targets (tdigest merge structure, compaction and buffer sort equal to
# their stable references, hdratio classification ranges, the integer
# equation 1 equal to its float form and Tally's counts equal to
# Evaluate's, segment decode never panics on hostile bytes, ship frame
# decode never panics on hostile streams, comparison series extended at
# any cuts of a stream equal the from-nothing ones).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTDigestMerge -fuzztime 10s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzProcessMatchesStableReference -fuzztime 10s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzSortByMean -fuzztime 10s ./internal/tdigest/
	$(GO) test -run '^$$' -fuzz FuzzSeriesExtend -fuzztime 10s ./internal/analysis/
	$(GO) test -run '^$$' -fuzz FuzzHDRatioClassify -fuzztime 10s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzIdealRoundsMatchesLog2 -fuzztime 10s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzTallyMatchesEvaluate -fuzztime 10s ./internal/hdratio/
	$(GO) test -run '^$$' -fuzz FuzzSegmentDecode -fuzztime 10s ./internal/segstore/
	$(GO) test -run '^$$' -fuzz FuzzShipFrameDecode -fuzztime 10s ./internal/ship/
	$(GO) test -run '^$$' -fuzz FuzzStudydQueryParams -fuzztime 10s ./internal/studyd/

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
