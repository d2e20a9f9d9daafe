GO ?= go

.PHONY: all build bench-build bench-allocs test race bench json-bench vet lint lint-dup lint-fmt lint-quote-path lint-routes lint-sweep fuzz crash chaos bench-compare serve cluster

all: build vet test

build:
	$(GO) build ./...

# The socket benchmark is a nested module (benchmark/go.mod, replace
# qirana => ../) that `go build ./...` does not reach. Compile and vet it
# so a refactor that breaks a symbol listed in benchmark/probes.go fails
# here, not at the benchmark gate. TestBenchmarkModuleBuilds runs the
# same commands under `go test ./...`.
bench-build:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...

# One pass of each allocation benchmark of the executor's hot paths (delta
# runs, tagged batches, group refolds) and of a cold checker build, with
# -benchmem, so they keep compiling and running: test depends on it.
bench-allocs:
	$(GO) test -run '^$$' -bench 'RunTagged|GroupRefold|CheckerBuild' -benchtime 1x -benchmem ./internal/sqlengine/exec ./internal/disagree

test: vet bench-allocs
	$(GO) test ./...

# Race-detector run over the whole module. The parallel differential test
# (internal/pricing) forces GOMAXPROCS=4 and runs every pricing path with
# Workers=4, so this doubles as the shared-read correctness gate at CI
# scale factors. The concurrent-sweep tests (a checker shared by four
# concurrent CheckBatch calls; eight goroutines of distinct cold quotes
# on every sweep path against a serial twin) run here once; CI repeats
# them with go test -race -count=5 -run 'Concurren|SharedChecker' ./...
race:
	$(GO) test -race ./...

vet: lint-dup lint-fmt lint-quote-path lint-routes lint-sweep
	$(GO) vet ./...

# The lowercase-name helper lives in internal/sqlengine/ast (LowerName);
# private copies used to accumulate in the checker/exec/plan, storage and
# support layers and drift. Fail if a new one appears.
lint-dup:
	@if grep -rn 'func lower(\|func appendLower(' internal/disagree internal/sqlengine/exec internal/sqlengine/plan internal/storage internal/support --include='*.go'; then \
		echo 'duplicate lower() helper: use ast.LowerName'; exit 1; fi

# Every tracked Go file must be gofmt-clean. git ls-files lists tracked
# sources only, so the module-cache copies under .bench_build/ are never
# scanned.
lint-fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); if [ -n "$$out" ]; then \
		echo "$$out"; echo 'gofmt: run gofmt -w on the files above'; exit 1; fi

# Every quote mode is one sweep, one fold and one cache key (DESIGN.md
# §7, "One quote path"). Fail if a non-test root-package file other than
# sweep.go calls an engine sweep entry point, an engine fold or a
# RemoteSweeper/DegradedSweeper method, or if a file other than key.go
# spells a cache-key prefix literal.
QUOTE_FILES = $(filter-out %_test.go,$(wildcard *.go))
lint-quote-path:
	@if grep -nE '\.((Disagreements|OutputHashes)(Multi)?LiveCtx|Sweep(Bits|Hashes)(Degraded)?|PriceFromDisagreements|EntropyPriceFromHashes|EstimateFromSampled(Disagreements|Hashes))\(' \
		$(filter-out sweep.go,$(QUOTE_FILES)); then \
		echo 'quote path: only Broker.sweep and Broker.fold (sweep.go) call the sweeps and folds'; exit 1; fi
	@if grep -nE '"(d|td|e|te|a|ss|sh)\|' $(filter-out key.go,$(QUOTE_FILES)) | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then \
		echo 'quote path: only Broker.key (key.go) renders cache keys'; exit 1; fi

# Bits and hashes come from one per-element decision (DESIGN.md §7,
# "One per-element decision"). Fail if a non-test file other than
# internal/pricing/multi.go calls the checker's batch sweep or the naive
# element pass. Fail too if a non-test file of the checker, the engine
# or the executor calls .Check( or RunDelta(: the no-batching mode is
# CheckBatch at a job cap of 1, and RunTagged is exec's one delta entry.
SWEEP_DIRS = internal/disagree internal/pricing internal/sqlengine/exec
lint-sweep:
	@if git ls-files '*.go' | grep -v '_test\.go$$' | grep -vx 'internal/pricing/multi.go' \
		| xargs grep -nE 'disagree\.CheckBatch\(|\.sweepElements\('; then \
		echo 'sweep: only Engine.sweep (internal/pricing/multi.go) calls CheckBatch and sweepElements'; exit 1; fi
	@if git ls-files $(addsuffix /*.go,$(SWEEP_DIRS)) | grep -v '_test\.go$$' \
		| xargs grep -nE 'RunDelta\(|\.Check\('; then \
		echo 'sweep: decide elements through CheckBatch (job cap 1 for no batching) and run deltas through RunTagged'; exit 1; fi

# Every HTTP route lives under /v1/ (or /debug/ for expvar and pprof).
# Fail if a non-test file of a serving package registers a method route
# anywhere else — including a prefix spliced in at run time.
ROUTE_DIRS = internal/httpapi internal/shard cmd
lint-routes:
	@if grep -rnE 'Handle(Func)?\("(GET|POST) ' $(ROUTE_DIRS) --include='*.go' --exclude='*_test.go' \
		| grep -vE 'Handle(Func)?\("(GET|POST) /(v1|debug)/'; then \
		echo 'routes: register HTTP routes under /v1/ (or /debug/) only'; exit 1; fi

# staticcheck runs when installed; locally without it the target degrades
# to lint-dup (CI installs and runs it).
lint: lint-dup
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'lint: staticcheck not installed, skipping (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@latest)'; fi

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Machine-readable pricing benchmarks (Fig 4d/5a/5b groups at workers 1
# and NumCPU); writes BENCH_pricing.json for cross-PR perf tracking.
json-bench:
	$(GO) run ./cmd/bench

# Quick fuzz passes: the SQL lexer+parser (seeded from the workload query
# corpus) and the tiered delta checker (random ± updates differenced
# against full re-runs), plus the committed regression corpora in
# testdata/fuzz.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/sqlengine/parser -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlengine/parser -fuzz FuzzPrepare -fuzztime $(FUZZTIME)
	$(GO) test ./internal/disagree -fuzz FuzzDeltaTiers -fuzztime $(FUZZTIME)

# Fault-injection suite under the race detector: the crash matrix
# kills-and-recovers the durable broker at every ledger/snapshot
# failpoint and every torn-write offset, asserting the recovered broker
# is bit-identical to a never-crashed twin (DESIGN.md §9), and the
# cluster torture kills the leader mid-purchase at every ledger
# failpoint and fails over to the WAL-tailing standby (DESIGN.md §12).
crash:
	$(GO) test -race -count=1 \
		-run 'Crash|Torn|Truncat|Durab|Recover|Ledger|Snapshot|Cluster' \
		. ./internal/durable ./internal/httpapi
	$(GO) test -race -count=1 ./internal/failpoint

# Shard chaos suite under the race detector (DESIGN.md §14): every shard
# behind a fault-injecting proxy (drops, 500s, delays, trickle bodies,
# flapping, hard-down). Transient faults must leave prices AND Stats
# bit-identical to a never-faulted twin; a hard outage must serve
# degraded upper-bound quotes (never a wrong price, never a 503 for a
# quote), refuse purchases, and reconcile exact after heal. Also covers
# the breaker/retry/hedge unit layer and the standby promotion gate.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Degraded|Breaker|Hedge|Retry|Flap|Partition|EWMA|Backoff|ParentCancel|FaultCounters|FailoverGate|ProbeLoop' \
		. ./internal/shard ./internal/httpapi ./cmd/qiranad

# Re-run the pricing benchmarks at a reduced scale and compare against the
# committed BENCH_pricing.json; exits nonzero on a >20% regression. The
# host's noise comes in multi-minute fast/slow windows, so the gate takes
# the best of many reps while the committed baseline is a single
# unmined measurement — false positives need a real slowdown, not an
# unlucky window.
bench-compare:
	$(GO) run ./cmd/bench -support 250 -min-time 300ms -reps 9 \
		-out /tmp/BENCH_new.json -compare BENCH_pricing.json

# Start the HTTP pricing daemon on localhost:8080 (world dataset, $$100).
# See README "Running qiranad" for the endpoint surface and curl examples.
serve:
	$(GO) run ./cmd/qiranad -dataset world -price 100 -support 1000 -addr localhost:8080

# Start a demo cluster in one process: a durable fan-out router on :8090
# over 3 in-process shard workers, plus a read-only standby mirror on
# :8091 tailing the router's ledger. See README "Running a cluster".
CLUSTER_DATA ?= /tmp/qirana-cluster
cluster:
	$(GO) run ./cmd/qirouter -cluster 3 -dataset world -price 100 -support 1000 \
		-data $(CLUSTER_DATA) -addr localhost:8090 -standby-addr localhost:8091
