# CS-F-LTR reproduction — convenience targets. Everything is plain `go`
# under the hood; the Makefile only names the common workflows.

GO ?= go

.PHONY: all build test race cover bench bench-smoke benchmark benchmark-test chaos lease fuzz fuzz-smoke experiments experiments-fast examples fmt fmt-check vet analyze analyze-fixtures clean telemetry-demo trace-demo loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One benchmark per paper table/figure plus package micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Compile every benchmark and run each for exactly one iteration under
# the race detector — cheap rot protection, mirrored by the CI job.
# -short shrinks what a benchmark sweeps (the Fig. 4 columns run the unit
# tests' configuration), not which benchmarks run.
bench-smoke:
	$(GO) test -short -race -run='^$$' -bench=. -benchtime=1x ./...

# The repo's one systems scorecard (BENCHMARK.json): every workload's
# twelve end-to-end metrics, one process per workload, about a minute
# each. benchmark/README.md describes the flags (--trace 1 for the
# per-layer ladder, --selfcheck for the A/A noise check).
benchmark:
	@for w in search_cold gateway_zipf augment_train ingest_churn; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 12 || exit 1; \
	done

# benchmark/ is a nested module that tier-1 `go test ./...` never
# compiles: vet and test it against this tree so an internal/...
# signature change cannot break it silently. Mirrored by the CI job.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The seeded fault-injection suite under the race detector: the chaos
# and resilience packages end to end, plus the degraded-mode search,
# breaker, quorum, and per-party link tests in federation.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/resilience/
	$(GO) test -race -run 'Chaos|Degraded|Breaker|Resilience|Quorum|PartyLink' ./internal/federation/

# The reply lease under the race detector, five times over: who may
# release a reverse top-K or TF reply and who retains one, in every
# package that produces or ends one. (The allocation budgets themselves skip
# under -race, where sync.Pool drops Puts; `make test` runs them.)
# Mirrored by the CI job.
lease:
	$(GO) test -race -count=5 -run 'Lease|Release|Retention|AllocBudget' ./internal/core ./internal/shard ./internal/wire ./internal/federation

# Short fuzz sessions over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzUnmarshalTable -fuzztime 30s ./internal/sketch/
	$(GO) test -fuzz FuzzUnmarshalCompact -fuzztime 30s ./internal/sketch/
	$(GO) test -fuzz FuzzReadOwner -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRTKQueryHandling -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRTKResponseHandling -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzMergeRTKResponses -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRTKSketchOps -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzHTTPEnvelope -fuzztime 30s ./internal/federation/
	$(GO) test -fuzz FuzzHTTPWireBody -fuzztime 30s ./internal/federation/
	$(GO) test -fuzz FuzzWritePrometheus -fuzztime 30s ./internal/telemetry/
	$(GO) test -fuzz FuzzTraceExport -fuzztime 30s ./internal/telemetry/
	$(GO) test -fuzz FuzzCacheKey -fuzztime 30s ./internal/qcache/
	$(GO) test -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzSecAggDecode -fuzztime 30s ./internal/secagg/

# Ten seconds each on the decoders of what a remote party sends: the
# wire frames (version 2 RTK replies among them), the querier's handling
# of a decoded reply, and the HTTP host and client that carry the frames;
# on the RTK-Sketch's ingest and removal paths against the plain
# Algorithm 4 model, across the cap both ways; on a sharded party's merge
# of its shards' replies against the sort-and-cut oracle; on the owner snapshot
# reader, seeded with snapshots of every resident state; and on the
# document-table decoder, seeded at every counter width. A short minimize
# budget keeps the engine mutating instead of shrinking the 9 kB seeds.
# Mirrored by the CI job.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzRTKResponseHandling -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzRTKSketchOps -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMergeRTKResponses -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzReadOwner -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzHTTPWireBody -fuzztime 10s -fuzzminimizetime 1s ./internal/federation/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalCompact -fuzztime 10s -fuzzminimizetime 1s ./internal/sketch/

# Regenerate every table and figure at the shape-faithful default scale
# (about 20 minutes; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/expbench -exp all -scale default

# Same shapes in under a minute.
experiments-fast:
	$(GO) run ./cmd/expbench -exp all -scale test

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/federatedsearch
	$(GO) run ./examples/privatetf
	$(GO) run ./examples/incrementalindex
	$(GO) run ./examples/httpgateway
	$(GO) run ./examples/enterpriseranking

# Start a test-scale federation with the HTTP gateway, scrape the
# Prometheus metrics route once and shut down.
telemetry-demo:
	$(GO) build -o /tmp/csfltr-demo ./cmd/csfltr
	/tmp/csfltr-demo serve -scale test -http 127.0.0.1:7080 & \
	SRV=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:7080/v1/parties >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	echo "--- GET /v1/metrics ---"; \
	curl -sf http://127.0.0.1:7080/v1/metrics | head -40; \
	STATUS=$$?; \
	kill $$SRV 2>/dev/null; \
	exit $$STATUS

# End-to-end smoke for the flight recorder, built with the race
# detector: start a test-scale federation with -trace (which runs seeded
# demo searches), list the audit ledger over the gateway, then dump the
# first trace's span tree and its Chrome trace-event JSON. Mirrored by
# the CI job.
trace-demo:
	$(GO) build -race -o /tmp/csfltr-trace-demo ./cmd/csfltr
	/tmp/csfltr-trace-demo serve -scale test -trace -http 127.0.0.1:7180 & \
	SRV=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:7180/v1/audit 2>/dev/null | grep -q trace_id && break; \
		sleep 0.2; \
	done; \
	/tmp/csfltr-trace-demo trace -http 127.0.0.1:7180; \
	STATUS=$$?; \
	if [ $$STATUS -eq 0 ]; then \
		ID=$$(curl -sf http://127.0.0.1:7180/v1/audit | sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' | head -1); \
		/tmp/csfltr-trace-demo trace -http 127.0.0.1:7180 -id $$ID -chrome /tmp/csfltr-trace.json; \
		STATUS=$$?; \
	fi; \
	kill $$SRV 2>/dev/null; \
	exit $$STATUS

fmt:
	gofmt -w .

# Fail (listing the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis, v2 suite: interprocedural privacy
# taint, lock-hold concurrency hygiene, merge-path
# determinism, epsilon budget-flow, dropped errors, metric-label
# cardinality, and suppression auditing. See DESIGN.md §14.
analyze:
	$(GO) run ./cmd/csfltr-vet ./...

# The analyzers' own fixture suite (testdata packages with // want
# expectations plus the harness meta-test), shuffled so fixture results
# cannot depend on execution order. Mirrored by the CI job.
analyze-fixtures:
	$(GO) test -shuffle=on -short -run 'TestFixtures|TestFixtureHarness|TestParseAllow|TestReasonless' ./internal/analysis/

# The three size figures the simplicity PRs report: Go lines outside
# tests and benchmark/, test Go lines (_test.go files and testdata/
# fixtures; benchmark/ excluded likewise) and tracked files.
# Informational: CI prints it, nothing gates on it.
loc:
	@echo "go lines outside tests and benchmark/: $$(git ls-files '*.go' | grep -v '^benchmark/' | grep -v -e '_test\.go$$' -e '/testdata/' | xargs cat | wc -l)"
	@echo "test go lines:                         $$(git ls-files '*.go' | grep -v '^benchmark/' | grep -e '_test\.go$$' -e '/testdata/' | xargs cat | wc -l)"
	@echo "tracked files:                         $$(git ls-files | wc -l)"

clean:
	$(GO) clean ./...
