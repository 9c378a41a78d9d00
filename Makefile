GO ?= go

.PHONY: ci fmt vet build test ledger-test race bench-smoke fuzz-smoke trace-smoke serve-smoke metrics-smoke router-smoke chaos-soak cache-gate fleet-trace-smoke membership-soak slo-smoke

# ci is the full verification gate: gofmt, vet, build, the whole test
# suite, the perf ledger's module tests (which the root `go test ./...` does
# not reach), a race-detector pass over the concurrency-bearing packages (the
# portfolio racer, the parallel clause-sharing SAT core, the telemetry
# recorder, metrics registry and flight recorder, the decision service and
# the fleet router), a one-shot benchmark smoke run that keeps the bench
# harness compiling and solving, a fuzz smoke of the formula front end (the
# parser, the parser against its reference, the fingerprint's
# invariances), a telemetry smoke run that validates the
# trace and JSON-stats artifacts against their documented schemas, a
# process-level smoke of the sufserved daemon lifecycle, a metrics smoke that
# scrapes /metrics and SIGQUIT-dumps the flight recorder from a live server,
# a process-level smoke of the sufrouter fleet tier (kill a backend, assert
# failover and a strict /metrics parse), the chaos soak (crash/restart +
# latency/blackhole chaos under verifying load, gated on zero mismatches,
# 99%+ availability and zero leaked goroutines), and the cache gate (cached
# repeats 10x faster than cold with a no-cache control agreeing, the
# incremental BMC session 1.5x faster than per-depth, and a race-instrumented
# cache-mix soak with zero verdict mismatches), plus the fleet-trace smoke
# (real router + backends, a kill mid-run, and the merged cross-tier trace
# strict-validated by tracecheck -fleet), and the membership soak (every
# backend of a live fleet rolled through drain -> SIGKILL -> restart -> rejoin
# plus a cold join mid-load, gated on zero mismatches, 99%+ availability, the
# predicted epoch, ~1/N key movement per step and zero leaked goroutines),
# and the SLO smoke (flood a 1-worker sufserved until the latency objective
# burns, assert the state transition in /metrics + the flight recorder and
# exactly one rate-limited profile capture validated by tracecheck -profiles).
ci: fmt vet build test ledger-test race bench-smoke fuzz-smoke trace-smoke serve-smoke metrics-smoke router-smoke chaos-soak cache-gate fleet-trace-smoke membership-soak slo-smoke

# fmt fails when gofmt would reformat a tracked Go file. It lists the files
# with git so that untracked build outputs (.bench_build/) are never walked,
# runs the gofmt of the $(GO) toolchain, and fails too when git finds no Go
# file or either tool fails (gofmt exits 2 on a file it cannot parse).
fmt:
	@files=$$(git ls-files '*.go') && [ -n "$$files" ] || { echo "fmt: git ls-files failed or found no Go files"; exit 1; }; \
	out=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) || { echo "fmt: gofmt failed"; exit 1; }; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# vet covers the nested perfledger module too: `go vet ./...` stops at its
# go.mod, yet it imports internal/server, internal/obs and internal/bench.
vet:
	$(GO) vet ./...
	cd perfledger && $(GO) vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ledger-test runs the tests of the nested perfledger module (25-45 s),
# among them TestLayerDriverMatchesDecide: the ledger's layer-by-layer replay
# must build the same CNF and reach the same verdict as core.DecideCtx on
# every paper formula, or its per-layer times describe another computation.
ledger-test:
	cd perfledger && $(GO) test .

race:
	$(GO) test -race -short ./internal/core ./internal/sat ./internal/obs \
		./internal/obs/history ./internal/obs/slo \
		./internal/server ./internal/server/client ./internal/router \
		./internal/tsys

bench-smoke:
	$(GO) test -run=NONE -bench=BenchmarkSolve -benchtime=1x ./internal/sat
	$(GO) test -run=NONE -bench='BenchmarkParse|BenchmarkFingerprint' -benchtime=1x ./internal/suf
	$(GO) test -run=NONE -bench='BenchmarkDecideInvariant|BenchmarkDecideHybrid' -benchtime=1x ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkCacheHit -benchtime=1x ./internal/server

# fuzz-smoke fuzzes the formula front end that every /decide request goes
# through, 10 s per target: FuzzParse (no panic; accepted input round-trips
# through the printer), FuzzParseMatchesReference (Parse accepts what the
# reference parser accepts and builds the same DAG) and FuzzFingerprint
# (clone, mirror and rename invariance). go test fuzzes one target per run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/suf
	$(GO) test -run=NONE -fuzz='^FuzzParseMatchesReference$$' -fuzztime=10s ./internal/suf
	$(GO) test -run=NONE -fuzz='^FuzzFingerprint$$' -fuzztime=10s ./internal/suf

# trace-smoke drives sufdecide with every telemetry sink on an example and
# validates the artifacts: the Chrome trace must contain the hybrid pipeline
# phases in order and the JSON snapshot must match the schema in
# docs/FORMATS.md (strict decode, no unknown fields). The lazy and SVC runs
# pin the funcelim and analyze spans of the front half all engines share.
trace-smoke:
	$(GO) run ./cmd/sufdecide -method hybrid -j 2 \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats=json -stats-out /tmp/sufsat-stats-smoke.json \
		examples/formulas/congruence.suf
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats /tmp/sufsat-stats-smoke.json \
		-want-spans funcelim,analyze,encode,cnf,trans,sat
	$(GO) run ./cmd/sufdecide -method lazy \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats=json -stats-out /tmp/sufsat-stats-smoke.json \
		examples/formulas/congruence.suf
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats /tmp/sufsat-stats-smoke.json \
		-want-spans funcelim,analyze,abstract,refine
	$(GO) run ./cmd/sufdecide -method svc \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats=json -stats-out /tmp/sufsat-stats-smoke.json \
		examples/formulas/congruence.suf
	$(GO) run ./cmd/tracecheck \
		-trace /tmp/sufsat-trace-smoke.json \
		-stats /tmp/sufsat-stats-smoke.json \
		-want-spans funcelim,analyze,split

# serve-smoke builds cmd/sufserved and exercises the daemon end to end:
# ephemeral port, valid/invalid/malformed requests through the retrying
# client, SIGTERM drain with exit 0 and the final counter audit line.
serve-smoke:
	$(GO) test -run TestServedProcessSmoke ./internal/server

# metrics-smoke is the process-level observability gate: serve with metrics
# on, drive correlated requests, scrape /metrics to a file and validate it
# with tracecheck, then SIGQUIT under live load and validate the flight dump
# (strict parse, in-flight requests present).
metrics-smoke:
	$(GO) test -run TestServedMetricsSmoke ./internal/server

# router-smoke is the process-level fleet gate: a real sufrouter over two
# real sufserved processes, one backend SIGKILLed mid-run. Every verdict must
# keep arriving via failover, the dead backend's breaker must open, and the
# router's /metrics exposition must strict-parse with the sufrouter_*
# families present.
router-smoke:
	$(GO) test -run TestRouterProcessSmoke ./internal/bench

# chaos-soak is the fleet chaos gate, run with -race so the in-process
# router is instrumented: 10 verifying clients through a hedging router over
# three sufserved processes while one backend is SIGKILLed and restarted on a
# schedule and another sits behind a proxy cycling latency and blackhole
# windows. Zero verdict mismatches, 99%+ availability (definitive answer or
# clean 503) and zero leaked goroutines, or the gate fails.
chaos-soak:
	$(GO) test -race -run TestChaosSoak ./internal/bench

# cache-gate is the caching/incrementality verification gate. The timing
# halves run uninstrumented (a 10x and a 1.5x wall-clock ratio are meaningless
# under the race detector's slowdown), and so does the allocation pin that a
# byte-identical repeat is answered without a parse; the correctness half —
# concurrent cache-mix soak where every cached verdict is checked against
# ground truth — runs with -race so cache and single-flight internals are
# instrumented while being hammered.
cache-gate:
	$(GO) test -run 'TestCacheColdWarmSpeedup|TestBatchDecide|TestRepeatHitSkipsParse' ./internal/server
	$(GO) test -run TestBMCStreamSpeedup ./internal/bench
	$(GO) test -race -run TestSoakCacheMix ./internal/server

# fleet-trace-smoke is the distributed-tracing gate: real sufrouter and
# sufserved processes end to end. Phase 1 kills a request's home backend and
# requires the failover to surface in ONE merged cross-tier Chrome trace that
# the strict `tracecheck -fleet` validator accepts. Phase 2 is the full
# acceptance scenario — primary blackholed at the wire, hedge target dead,
# failover target cache-warm — so a single request is simultaneously hedged,
# failed over and cache-served, with the whole disposition in the merged
# trace and the router's /debug/slowlog.
fleet-trace-smoke:
	$(GO) test -run TestFleetTraceSmoke ./internal/bench

# membership-soak is the rolling-upgrade chaos gate, run with -race so the
# in-process router is instrumented: every backend of a live 3-node fleet is
# rolled through drain -> SIGKILL -> restart -> rejoin via the admin API while
# verifying clients hammer the router, then a cold backend joins mid-load via
# the declarative PUT. Zero verdict mismatches, 99%+ availability, the epoch
# exactly where the choreography predicts, ~1/N key movement per step, warm
# survivors still serving cache hits after the join, and zero leaked
# goroutines — or the gate fails. The companion process test pins SIGHUP and
# PUT to the same Reconfigure path on a real sufrouter.
membership-soak:
	$(GO) test -race -run 'TestMembershipSoak|TestRouterMembershipProcess' ./internal/bench

# slo-smoke is the SLO/profiling gate: a real sufserved with second-scale
# SLO windows and a 10ms latency threshold is flooded with slow requests
# until the latency-p95 objective burns. The burning gauge, transition
# counter, /statusz SLO block, /debug/history window, flight-recorder
# slo-burn event and exactly one rate-limited cpu+heap profile capture
# (strict-validated by tracecheck -profiles) are all asserted.
slo-smoke:
	$(GO) test -run TestSLOSmoke ./internal/server
