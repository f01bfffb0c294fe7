# Developer entry points. `make check` is the tier-1 gate; `make bench`
# refreshes the update/batch perf trajectory in BENCH_update.json, `make
# bench-enum` the read path's in BENCH_enum.json and `make bench-build` the
# preprocessing and major-rebalance one in BENCH_build.json; `make
# bench-check` gates a working tree against the committed baselines (ns/op
# within tolerance, allocs/op strictly no worse). Which to re-record: a
# change to internal/core's materialize.go or update.go, or to
# internal/relation, can move all three — run `make bench-check-allocs` and
# re-record the file whose line moved (old → new in CHANGES.md), and only
# then — ns/op drift is no reason; enum.go moves only BENCH_enum.json, and
# the read stream's codec only BenchmarkServerRead in BENCH_update.json. The paper's update cost has its own exact gate inside
# `make test`: the view-write count, `go test ./internal/core -run
# TestViewDeltasExact -v`, which pins Stats.ViewDeltas of a fixed run and
# prints it per view, and so do the paper's space, delay and amortized
# update bounds: `go test ./internal/experiments -run TestBoundsExact -v`
# prints each derived constant beside the largest ratio observed.

GO ?= go

# The update-path benchmark set: single-tuple updates, batches (one relation,
# many trees, many relations), the sharded-federation commit and gather
# paths, the durable commit path at each fsync policy, the watch fan-out
# sweep (whose subs=0 case pins the zero-watcher commit path at
# 0 allocs/op), and the HTTP service layer (BenchmarkServer*, whose
# allocs/op ride the Go HTTP stack and are gated loosely — see
# BENCH_ALLOC_NONDET). Keep in sync with BENCH_update.json.
BENCH_RE = Update|Batch|Sharded|WAL|Watch|Server

# The read-path benchmark set: one capped pass over Engine.All per ε on three
# query classes, and on the first of them again with one Apply before every
# pass, so each pass reads at a new epoch. It has its own file
# (BENCH_enum.json) and its own regex — BENCH_RE is not widened — and is
# gated on allocs/op only: a pass allocates nothing, since the implicit
# snapshot lives on the reader's stack, the iterator tree is reused from the
# previous pass, and a new epoch's capture re-pins the frozen handles of the
# context the previous pass freed — nothing per pass, per heavy key or per
# row. Every line reads 0,
# so the 1 % the gate allows means exact. That holds: go test truncates
# allocs/op to whole allocations, so a stray allocation of the runtime's
# moves a count only if it recurs in every iteration, while one allocation
# per pass would read 1, one per heavy key thousands and one per row 20 000.
BENCH_ENUM_RE = ^BenchmarkEnumerate$$
BENCH_ENUM_ALLOC_TOL = 0.01

# The preprocessing benchmark set: Load + Build per ε, mode and query class
# (and of one durable engine, whose Build writes the initial checkpoint), the
# one-row Loads alone, one steady-state major rebalance, a snapshot's first
# write, and a restart from a checkpoint. Its own file (BENCH_build.json) and
# regex, gated on allocs/op only at the read-path set's 1 %: a build or a load
# allocates per column and table growth — counts fixed by the seeded input,
# give or take a stray allocation of the runtime's — a steady-state rebalance
# not at all, a snapshot's first write a fixed number per relation it
# detaches, and a restart per relation and per growth, not per row.
BENCH_BUILD_RE = ^Benchmark(Build|Load|MajorRebalance|SnapshotFirstWrite|Open)$$

# Benchmarks whose allocs/op are inherently nondeterministic (HTTP-path
# connection reuse and buffer pooling); benchdiff gates these at 50%
# tolerance instead of exact equality.
BENCH_ALLOC_NONDET = ^BenchmarkServer

.PHONY: check test test-count vet race examples bench-module bench bench-enum bench-build bench-fresh diff-allocs diff-time bench-check bench-check-allocs docs-check api-check api-update loc bench-all

check: vet test

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The full suite, verbose, failing when it fails or when fewer tests pass
# than TEST_FLOOR (subtests count, as `go test -v` prints them). A change
# that adds tests raises the floor to its new count; one that deletes a test
# on purpose lowers it in the same diff and says why.
TEST_FLOOR = 746

test-count:
	@log=$$(mktemp); $(GO) test -v ./... > $$log 2>&1; status=$$?; \
	passed=$$(grep -c -- '--- PASS' $$log); \
	grep -E -- '--- FAIL|^FAIL|^panic:' $$log; \
	echo "go test -v ./...: $$passed passed, floor $(TEST_FLOOR)"; \
	if [ $$status -eq 0 ] && [ $$passed -lt $(TEST_FLOOR) ]; then echo "fewer tests pass than TEST_FLOOR" >&2; status=1; fi; \
	if [ $$status -ne 0 ]; then echo "the full log is kept in $$log" >&2; exit $$status; fi; \
	rm -f $$log

# The race-detector suites, exactly as the CI test job runs them (it calls
# this target, so the two cannot drift): every package of the module once
# under -race — the root property suites the scenario driver
# (scenario_test.go) runs against naive, the watch and Explain races, the
# federation's parallel apply, internal/server's stats-vs-commit and
# reader-eviction races, the cmd/ivmd shutdown and connection-timeout
# tests — then two deliberate repeats: three more runs of core's three
# snapshot races (readers capturing against a committer — consistency at
# every epoch, and readers recycling enumeration contexts and re-pinning
# their frozen handles through the engine's free list, opening at new
# epochs — each serializing commits and captures on one owner mutex, the
# role the federation's Fed.mu plays for a core engine, which takes no lock
# of its own), three shuffled runs of the federation suite (its
# zero-allocation pins must not depend on test order), and a Build whose
# light join crosses the rows a fill's helper needs, at K ∈ {1, 2}, at
# GOMAXPROCS 1 and 4 — so the helper count is derived from one core and from
# more cores than the machine may have.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestSnapshotConsistentUnderConcurrentBatches|TestSnapshotReuseRacesCommits|TestGenerationReuseRacesCommits' ./internal/core/
	$(GO) test -race -shuffle=on -count=3 ./internal/federation/
	$(GO) test -race -cpu 1,4 -run '^TestBuildOnHelpersMatchesSingleEngine$$' ./internal/federation/

# Run every example end to end. Each checks itself and exits non-zero on a
# failure (log.Fatal): matmul verifies its product, socialfeed its remote
# watch fold against the engine. `go build ./...` only compiles them.
EXAMPLES = quickstart retail matmul socialfeed

examples:
	@for x in $(EXAMPLES); do echo "== examples/$$x"; $(GO) run ./examples/$$x || exit 1; done

# bench/ is its own module, so `./...` never reaches it, yet it compiles
# against ivmeps, internal/core, internal/federation and internal/server.
# Vet and test it whenever those change.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Update-path microbenchmarks with allocation reporting, recorded as JSON.
# The raw output is kept in BENCH_update.txt for eyeballing.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem | tee BENCH_update.txt
	$(GO) run ./cmd/bench2json < BENCH_update.txt > BENCH_update.json
	@rm -f BENCH_update.txt
	@echo wrote BENCH_update.json

# The read-path benchmarks, recorded as BENCH_enum.json.
bench-enum:
	$(GO) test -run '^$$' -bench '$(BENCH_ENUM_RE)' -benchmem | $(GO) run ./cmd/bench2json > BENCH_enum.json
	@echo wrote BENCH_enum.json

# The preprocessing benchmarks, recorded as BENCH_build.json. A build's fill
# runs on GOMAXPROCS helpers, and each helper costs allocations, so the
# set's allocs/op depend on the core count: both ends of its pipe run at
# BENCH_BUILD_PROCS, whatever the machine has, here and in bench-fresh.
BENCH_BUILD_PROCS = 2

bench-build:
	GOMAXPROCS=$(BENCH_BUILD_PROCS) $(GO) test -run '^$$' -bench '$(BENCH_BUILD_RE)' -benchmem | GOMAXPROCS=$(BENCH_BUILD_PROCS) $(GO) run ./cmd/bench2json > BENCH_build.json
	@echo wrote BENCH_build.json

# Re-run the benchmark set and diff against the committed baseline without
# touching it. Fails on any allocs/op increase (strict equality — the
# update and batch paths are pinned allocation-free or to deterministic
# counts) or an ns/op regression beyond BENCH_TOL (0.50 here: >50% slower;
# CI's advisory diff-time runs at BENCH_TOL=0.60). ns/op is
# machine-dependent: compare on the machine that produced the baseline, or
# raise the tolerance. Default sized for a virtualized/shared box (observed
# single-run noise up to ±40%); tighten on quiet bare metal.
BENCH_TOL = 0.50

# One fresh benchmark run of each set, recorded as BENCH_check.json,
# BENCH_enum_check.json and BENCH_build_check.json. CI runs this once and then
# applies the diff gates to the same reports, so the benchmark regexes live
# only here (BENCH_RE, BENCH_ENUM_RE and BENCH_BUILD_RE above).
bench-fresh:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem | $(GO) run ./cmd/bench2json > BENCH_check.json
	$(GO) test -run '^$$' -bench '$(BENCH_ENUM_RE)' -benchmem | $(GO) run ./cmd/bench2json > BENCH_enum_check.json
	GOMAXPROCS=$(BENCH_BUILD_PROCS) $(GO) test -run '^$$' -bench '$(BENCH_BUILD_RE)' -benchmem | GOMAXPROCS=$(BENCH_BUILD_PROCS) $(GO) run ./cmd/bench2json > BENCH_build_check.json

# Diff-only steps over the existing check reports (run bench-fresh first).
# diff-allocs is the hard CI gate, on all three sets: allocs/op is
# machine-independent and, with every benchmark warmed to its steady state,
# deterministic even on one-shot runs. diff-time is advisory on shared
# runners, and the read-path and preprocessing sets have no time gate.
diff-allocs:
	$(GO) run ./cmd/benchdiff -baseline BENCH_update.json -new BENCH_check.json -allocs-only -alloc-nondet '$(BENCH_ALLOC_NONDET)'
	$(GO) run ./cmd/benchdiff -baseline BENCH_enum.json -new BENCH_enum_check.json -allocs-only -alloc-tol $(BENCH_ENUM_ALLOC_TOL)
	$(GO) run ./cmd/benchdiff -baseline BENCH_build.json -new BENCH_build_check.json -allocs-only -alloc-tol $(BENCH_ENUM_ALLOC_TOL)

diff-time:
	$(GO) run ./cmd/benchdiff -baseline BENCH_update.json -new BENCH_check.json -tol $(BENCH_TOL) -alloc-nondet '$(BENCH_ALLOC_NONDET)'

bench-check: bench-fresh
	@status=0; $(MAKE) --no-print-directory diff-time || status=$$?; \
		rm -f BENCH_check.json BENCH_enum_check.json BENCH_build_check.json; exit $$status

bench-check-allocs: bench-fresh
	@status=0; $(MAKE) --no-print-directory diff-allocs || status=$$?; \
		rm -f BENCH_check.json BENCH_enum_check.json BENCH_build_check.json; exit $$status

# Documentation gate: markdown link/anchor integrity across every *.md in
# the repository plus doc comments on all exported API (internal/doclint).
docs-check:
	$(GO) test ./internal/doclint/
	$(GO) vet ./...

# API-surface lock: diff the exported API of the public package against the
# committed golden dump (internal/apilock/ivmeps.golden). Fails whenever
# the public surface changes; if the change is intended, regenerate the
# golden with `make api-update` and commit it with the change.
api-check:
	$(GO) test ./internal/apilock/

api-update:
	$(GO) test ./internal/apilock/ -run TestAPILock -update
	@echo regenerated internal/apilock/ivmeps.golden

# The line count simplification PRs quote (ROADMAP process notes): non-test
# Go lines outside bench/, all of them and without comment-only lines, then
# the same for the storage layer, the tuple layer, the engine, the service,
# the log, the federation and the root package (its own files only).
LOC_FILES = find $(1) $(2) -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'
LOC_COUNT = $$($(call LOC_FILES,$(1),$(2)) | xargs cat | wc -l) with comments, $$($(call LOC_FILES,$(1),$(2)) | xargs cat | grep -vc '^[[:space:]]*//') without comment-only lines
loc:
	@echo "non-test .go lines outside bench/: $(call LOC_COUNT,.)"
	@echo "internal/relation: $(call LOC_COUNT,internal/relation)"
	@echo "internal/tuple: $(call LOC_COUNT,internal/tuple)"
	@echo "internal/core: $(call LOC_COUNT,internal/core)"
	@echo "internal/server: $(call LOC_COUNT,internal/server)"
	@echo "internal/wal: $(call LOC_COUNT,internal/wal)"
	@echo "internal/federation: $(call LOC_COUNT,internal/federation)"
	@echo "root package ivmeps: $(call LOC_COUNT,.,-maxdepth 1)"

# Full experiment sweep (slow); see cmd/hiqbench for options.
bench-all:
	$(GO) run ./cmd/hiqbench -quick
