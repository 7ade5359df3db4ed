# Developer entry points. `make ci` is the full gate: formatting, vet,
# the whole test suite under the race detector (the kill-and-recover,
# crash-point, server and CLI tortures included), a repeated-run concurrency
# stress pass, vet and tests of the benchmark module, and a short fuzz pass
# over the engine, fault-schedule, on-disk-format and accumulator fuzzers.

GO ?= go
FUZZTIME ?= 5s
# stress repeats the concurrency/determinism tests to shake out rare
# interleavings; raise for soak runs (e.g. STRESSCOUNT=50).
STRESSCOUNT ?= 5
# bench-json's rounds per row: raise for quieter numbers (e.g.
# BENCHCOUNT=5). Each group of rows runs for its own time or count (see
# bench-json).
BENCHCOUNT ?= 3

.PHONY: ci fmt vet test race stress build bench bench-smoke bench-module bench-json fuzz-smoke docs-check deps-check artifacts artifacts-check artifacts-full-check

ci: fmt vet docs-check deps-check artifacts-check race stress bench-smoke bench-module fuzz-smoke

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
# keeps the fleet-scale Select benchmarks at n=10^4 (the 10^5 rung builds
# fleets of up to ~450 MB; bench-json runs the full ladder).
bench-smoke:
	$(GO) test -short -run='^$$' -bench=. -benchtime=1x ./...

# The benchmark (perfbench/, see BENCHMARK.json) is a module of its own, so
# the root `go vet ./...` and `go test ./...` never compile it; this keeps an
# internal API change from breaking it unnoticed.
bench-module:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Machine-readable perf trajectory: run the core hot-path benchmarks, the
# fleet-scale Select benchmark, the exact load accumulator's kernels (Add/Sub
# and Round, in the two-word frame and spilled to limbs), the Lemma 1(i)
# bound's sweep over a 1000-item list, the Figure 4 sweep
# throughput benchmark (shards/sec at 1 and 8 workers) and the
# placement-server benchmark (req/sec with p50/p99 latency at 1 and 8
# clients), then write BENCH_core.json (benchstat-comparable names, the
# package of each entry, mean ns/op, B/op, allocs/op). The engine rows
# (ChurnHotPath, SimulateUniform, BinChurnClose, IndexCrossover and
# FragmentationSweep) run for 0.5 s per row: at a fixed 10x, BinChurnClose
# read 14–46% slower on the side of a parent-and-change pair whose change
# left its code alone, where 0.5 s rows of the same binaries overlapped.
# FleetSelect, the accumulator kernels and the bound run for 0.2 s per
# row: FleetSelect's rows take 0.4 µs to 3 ms per select, and at a fixed
# 10x a sub-µs row timed 4 µs in all, timer and first-touch cost included;
# its fleets are built outside the timed loop. DynamicAppendStep runs for 1 s per row: one op is
# a 4,096-item stream, and at 30x two rounds of the same code on a 2-vCPU
# VM read 1.0 and 1.7 µs per item. The sweep and server benchmarks run at
# 30x: at 10x a round lasted 0.3–0.8 s, and the same binary's throughput
# moved up to 2× between rounds with host load. When
# artifacts/bench/BENCH_core_pre.txt exists (the pre-change capture), it is
# embedded as the document's baseline section so the before/after pair
# travels together.
bench-json:
	@mkdir -p artifacts/bench
	$(GO) test ./internal/core -run='^$$' -bench='ChurnHotPath|SimulateUniform|BinChurnClose|IndexCrossover|FragmentationSweep' \
		-benchmem -benchtime=0.5s -count=$(BENCHCOUNT) | tee artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/core -run='^$$' -bench='DynamicAppendStep' \
		-benchmem -benchtime=1s -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/core -run='^$$' -bench='FleetSelect' \
		-benchmem -benchtime=0.2s -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/vector -run='^$$' -bench='^BenchmarkAcc(AddSub|Round)(Wide)?$$' \
		-benchmem -benchtime=0.2s -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/lowerbound -run='^$$' -bench='^BenchmarkIntegralBound$$' \
		-benchmem -benchtime=0.2s -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test . -run='^$$' -bench='Figure4SweepThroughput' \
		-benchmem -benchtime=30x -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) test ./internal/server -run='^$$' -bench='ServerPlaceThroughput' \
		-benchmem -benchtime=30x -count=$(BENCHCOUNT) | tee -a artifacts/bench/BENCH_core_cur.txt
	$(GO) run ./cmd/dvbpbench -benchjson artifacts/bench/BENCH_core_cur.txt \
		$(if $(wildcard artifacts/bench/BENCH_core_pre.txt),-benchjson-baseline artifacts/bench/BENCH_core_pre.txt) \
		-benchjson-out BENCH_core.json
	@echo "wrote BENCH_core.json"

# The cheap experiments whose CSVs are committed under artifacts/ and quoted
# by EXPERIMENTS.md, and the flags they are generated with (about 2 s in
# all; the eight dvbpfigs outputs under artifacts/figures/ take about as
# long again). Figure 4's full grid takes about a minute at -workers 2 and
# is checked on demand by artifacts-full-check.
ARTIFACT_EXPERIMENTS = table1 trueratio quality ablation-bestfit ablation-clairvoyant ablation-billing
ARTIFACT_FLAGS = -seed 1

# gen-artifacts builds dvbpbench once and writes the cheap experiments' CSVs
# into the directory $(1).
gen-artifacts = bin=$$(mktemp -d) && $(GO) build -o "$$bin/dvbpbench" ./cmd/dvbpbench && \
	for e in $(ARTIFACT_EXPERIMENTS); do \
		"$$bin/dvbpbench" -experiment $$e $(ARTIFACT_FLAGS) -out $(1) > /dev/null || { rm -rf "$$bin"; exit 1; }; \
	done; rm -rf "$$bin"

# artifacts regenerates the committed CSVs in place; artifacts-check
# regenerates them and every dvbpfigs output into a temporary directory and
# fails on any file whose bytes differ from the committed one, or on a
# committed figure that dvbpfigs no longer writes, so a change that moves a
# paper number or a figure cannot pass `make ci` unnoticed.
artifacts:
	@$(call gen-artifacts,artifacts)
	@echo "regenerated the cheap experiments' CSVs in artifacts/"

artifacts-check:
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(call gen-artifacts,"$$out") || exit 1; \
	$(GO) build -o "$$out/bin/" ./cmd/dvbpfigs || exit 1; \
	"$$out/bin/dvbpfigs" -workers 2 -out "$$out/figures" > /dev/null || exit 1; \
	n=0; bad=""; for f in "$$out"/*.csv "$$out"/figures/*; do \
		rel=artifacts/$${f#"$$out"/}; n=$$((n+1)); cmp -s "$$f" "$$rel" || bad="$$bad $$rel"; \
	done; \
	for f in artifacts/figures/*; do [ -f "$$out/$${f#artifacts/}" ] || bad="$$bad $$f(stale)"; done; \
	if [ $$n -eq 0 ] || [ -n "$$bad" ]; then \
		echo "artifacts-check: regenerated results differ from artifacts/:$${bad:- none written}"; exit 1; fi; \
	echo "artifacts-check ok ($$n files)"

# artifacts-full-check adds what artifacts-check leaves out: Figure 4's full
# grid (about a minute at -workers 2), regenerated into a temporary
# directory and compared byte for byte with artifacts/. It runs on demand,
# not in `make ci`.
artifacts-full-check: artifacts-check
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(GO) build -o "$$out/bin/" ./cmd/dvbpbench || exit 1; \
	"$$out/bin/dvbpbench" -experiment fig4 -workers 2 $(ARTIFACT_FLAGS) -out "$$out/artifacts" > /dev/null || exit 1; \
	n=0; bad=""; for f in "$$out"/artifacts/*.*; do \
		rel=$${f#"$$out"/}; n=$$((n+1)); cmp -s "$$f" "$$rel" || bad="$$bad $$rel"; \
	done; \
	if [ $$n -eq 0 ] || [ -n "$$bad" ]; then \
		echo "artifacts-full-check: regenerated results differ from artifacts/:$${bad:- none written}"; exit 1; fi; \
	echo "artifacts-full-check ok ($$n files)"

# Documentation gate: every internal package must carry a doc.go overview;
# every "DESIGN.md §N" reference in the top-level docs must point at a
# "## N." section DESIGN.md actually has; every Test, Benchmark, Fuzz or
# Example name that README.md, DESIGN.md or EXPERIMENTS.md cites must be
# defined by some _test.go (a trailing * cites every name with that prefix);
# and every -flag that a fenced code block in DOC_FLAG_FILES passes to one of
# DOC_FLAG_CMDS (continuation lines joined, # comments dropped) must be one
# the command's -h lists.
DOC_FLAG_CMDS = dvbpsim dvbpchaos dvbpbench dvbpfigs dvbpserver
DOC_FLAG_FILES = README.md EXPERIMENTS.md DESIGN.md .claude/skills/verify/SKILL.md

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
	@set -f; defs=$$(find . -name '*_test.go' -not -path './.bench_build/*' \
			-exec grep -hoE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' {} + | sed 's/^func //'); \
	bad=""; for n in $$(grep -hoE '\b(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*\*?' \
			README.md DESIGN.md EXPERIMENTS.md | sort -u); do \
		case "$$n" in \
		*\*) echo "$$defs" | grep -q "^$${n%\*}" || bad="$$bad $$n" ;; \
		*) echo "$$defs" | grep -qx "$$n" || bad="$$bad $$n" ;; \
		esac; \
	done; \
	if [ -n "$$bad" ]; then echo "docs-check: cited tests that no _test.go defines:$$bad"; exit 1; fi
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for c in $(DOC_FLAG_CMDS); do \
		$(GO) build -o "$$bin/$$c" ./cmd/$$c || exit 1; \
		"$$bin/$$c" -h 2>&1 | sed -n "s/^  -\([A-Za-z0-9_-]*\).*/$$c \1/p"; \
	done > "$$bin/flags"; \
	bad=$$(awk ' \
		FNR == NR { ok[$$1 " " $$2] = 1; cmd[$$1] = 1; next } \
		FNR == 1 { fence = 0; buf = "" } \
		/^[ \t]*```/ { fence = !fence; buf = ""; next } \
		!fence { next } \
		{ if (buf == "") at = FNR; line = buf $$0; buf = ""; \
		  if (line ~ /\\[ \t]*$$/) { sub(/\\[ \t]*$$/, " ", line); buf = line; next } \
		  sub(/(^|[ \t])#.*/, "", line); n = split(line, tok, /[ \t]+/); cur = ""; seg = 1; \
		  for (i = 1; i <= n; i++) { t = tok[i]; if (t == "") continue; \
		    if (t ~ /^(\||\|\||&&|;|&|>|>>|<|2>&1|\$$)$$/) { cur = ""; seg = 1; continue } \
		    if (seg) { if (t ~ /^[A-Za-z_][A-Za-z0-9_]*=/) continue; seg = 0; \
		      if (t == "go" && tok[i+1] == "run") { for (i += 2; i <= n && tok[i] ~ /^-/; i++) ; t = tok[i] } \
		      gsub(/"/, "", t); sub(/.*\//, "", t); if (t in cmd) cur = t; continue } \
		    if (cur != "" && t ~ /^--?[A-Za-z]/) { f = t; sub(/^--?/, "", f); sub(/=.*/, "", f); \
		      if (!((cur " " f) in ok)) print " " FILENAME ":" at ": " cur " -" f } } }' \
		"$$bin/flags" $(DOC_FLAG_FILES)) || exit 1; \
	if [ -n "$$bad" ]; then echo "docs-check: flags the commands do not have:$$bad"; exit 1; fi
	@echo "docs-check ok"

# Dependency gate: every internal package must be a dependency of a command
# under cmd/ or of the benchmark module (perfbench/), so no package lives on
# only for the dvbp facade, an example or its own tests.
deps-check:
	@pkgs=$$($(GO) list ./internal/...) || exit 1; \
	used=$$($(GO) list -deps ./cmd/... && cd perfbench && $(GO) list -deps ./...) || exit 1; \
	bad=""; for p in $$pkgs; do echo "$$used" | grep -qx "$$p" || bad="$$bad $$p"; done; \
	if [ -n "$$bad" ]; then echo "deps-check: internal packages that no command or perfbench needs:$$bad"; exit 1; fi; \
	echo "deps-check ok"

# Short differential-fuzz pass: the clean engine, the engine under fault
# injection, the fault-schedule parsers, the persistence layer's op-log and
# snapshot decoders (seed corpus committed under internal/persist/testdata),
# and the exact load accumulator against its math/big oracle.
# Each fuzzer gets FUZZTIME, and each minimization of a new input at most 1s:
# at Go's default of 60s a soak run (raised FUZZTIME) spends most of its time
# minimizing instead of executing inputs.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSimulate$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSimulateFaulty$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzMigrationPlan$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/migrate
	$(GO) test -run='^$$' -fuzz='^FuzzOpLogDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotDecode$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzAcc$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/vector
