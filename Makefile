# Developer entry points. `make ci` is the full gate: formatting, vet,
# the whole test suite under the race detector (the kill-and-recover,
# crash-point, server and CLI tortures included), a repeated-run concurrency
# stress pass, vet and tests of the benchmark module, and a short fuzz pass
# over the engine, fault-schedule, and on-disk-format fuzzers.

GO ?= go
FUZZTIME ?= 5s
# stress repeats the concurrency/determinism tests to shake out rare
# interleavings; raise for soak runs (e.g. STRESSCOUNT=50).
STRESSCOUNT ?= 5
# bench-json knobs: raise for quieter numbers (e.g. BENCHTIME=30x BENCHCOUNT=5).
BENCHTIME ?= 10x
BENCHCOUNT ?= 3

.PHONY: ci fmt vet test race stress build bench bench-smoke bench-module bench-json fuzz-smoke docs-check

ci: fmt vet docs-check race stress bench-smoke bench-module fuzz-smoke

# gofmt -l prints offending files; fail when the list is non-empty.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated-run concurrency stress under the race detector: the scheduler,
# parallel-sweep determinism, run-scoped metrics, the engine's policy-reuse
# guard, and concurrent-read contracts. GOMAXPROCS is forced above the core
# count so goroutines interleave even on small machines.
stress:
	GOMAXPROCS=4 $(GO) test -race -count=$(STRESSCOUNT) \
		-run='Concurrent|Stress|Sweep|Shard|ForRun|Cancellation|Panic|WorkerCounts|Migration|Planners' \
		./internal/parallel ./internal/experiments ./internal/metrics \
		./internal/core ./internal/faults ./internal/vector ./internal/server \
		./internal/migrate

bench:
	$(GO) test -bench=. -benchmem

# Run every benchmark exactly once so bench code can never rot unnoticed:
# compiles all benchmarks and executes each for a single iteration. -short
# keeps the fleet-scale Select benchmarks at n=10^4 (the 10^5/10^6 rungs
# build million-bin fleets; bench-json runs the full ladder).
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# The benchmark (perfbench/, see BENCHMARK.json) is a module of its own, so
# the root `go vet ./...` and `go test ./...` never compile it; this keeps an
# internal API change from breaking it unnoticed.
bench-module:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Machine-readable perf trajectory: run the core hot-path benchmarks, the
# Figure 4 sweep throughput benchmark (shards/sec at 1 and 8 workers) and the
# placement-server benchmark (req/sec with p50/p99 latency at 1 and 8
# clients), then write BENCH_core.json (benchstat-comparable names, the
# package of each entry, mean ns/op, B/op, allocs/op). When artifacts/bench/BENCH_core_pre.txt exists (the pre-change
# capture), it is embedded as the document's baseline section so the
# before/after pair travels together.
bench-json:
	@mkdir -p artifacts/bench
	$(GO) test ./internal/core -run='^$$' -bench='ChurnHotPath|SimulateUniform|BinChurnClose|FleetSelect|FragmentationSweep|DynamicAppendStep' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee artifacts/bench/BENCH_core_cur.txt
	$(GO) test . -run='^$$' -bench='Figure4SweepThroughput' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/server -run='^$$' -bench='ServerPlaceThroughput' \
		-benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) run ./cmd/dvbpbench -benchjson artifacts/bench/BENCH_core_cur.txt \
		$(if $(wildcard artifacts/bench/BENCH_core_pre.txt),-benchjson-baseline artifacts/bench/BENCH_core_pre.txt) \
		-benchjson-out BENCH_core.json
	@echo "wrote BENCH_core.json"

# Documentation gate: every internal package must carry a doc.go overview,
# and every "DESIGN.md §N" reference in the top-level docs must point at a
# "## N." section DESIGN.md actually has.
docs-check:
	@missing=""; for d in internal/*/; do \
		[ -f "$$d"doc.go ] || missing="$$missing $$d"; \
	done; \
	if [ -n "$$missing" ]; then echo "docs-check: missing doc.go in:$$missing"; exit 1; fi
	@bad=""; for n in $$(grep -ho 'DESIGN\.md §[0-9][0-9]*' README.md EXPERIMENTS.md ROADMAP.md 2>/dev/null \
			| grep -o '[0-9][0-9]*$$' | sort -un); do \
		grep -q "^## $$n\." DESIGN.md || bad="$$bad $$n"; \
	done; \
	if [ -n "$$bad" ]; then echo "docs-check: broken DESIGN.md section references:$$bad"; exit 1; fi
	@echo "docs-check ok"

# Short differential-fuzz pass: the clean engine, the engine under fault
# injection, the fault-schedule parsers, and the persistence layer's op-log
# and snapshot decoders (seed corpus committed under internal/persist/testdata).
# Each fuzzer gets FUZZTIME.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSimulate$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSimulateFaulty$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzMigrationPlan$$' -fuzztime=$(FUZZTIME) ./internal/migrate
	$(GO) test -run='^$$' -fuzz='^FuzzOpLogDecode$$' -fuzztime=$(FUZZTIME) ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=$(FUZZTIME) ./internal/persist
