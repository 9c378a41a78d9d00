// Command sufserved serves the SUF decision procedure over HTTP JSON: a
// bounded admission queue with deadline-aware load shedding in front of a
// fixed solve pool, per-request deadlines and budgets clamped to server
// ceilings, a degradation ladder retrying budget-blown eager encodings on
// the cheaper lazy path, per-request panic isolation, and SIGTERM/SIGINT
// graceful drain.
//
// Usage:
//
//	sufserved [-addr :8080] [-queue 64] [-workers N] [-j N]
//	          [-default-deadline 10s] [-max-deadline 60s]
//	          [-maxtrans N] [-maxcnf N] [-maxconflicts N] [-maxmem BYTES]
//	          [-nodegrade] [-no-cache] [-cache-entries N] [-cache-bytes N]
//	          [-max-batch N] [-drain-timeout 30s] [-debug-addr ADDR]
//	          [-slowlog N]
//	          [-no-metrics] [-flightrec-out FILE] [-quiet]
//	          [-no-history] [-history-interval 5s] [-history-slots 768]
//	          [-slo-fast 5m] [-slo-slow 1h] [-slo-latency-p95 500ms]
//	          [-slo-latency-p99 2s] [-profile-dir DIR] [-profile-cpu 1s]
//	          [-profile-gap 60s] [-profile-slow-ms MS]
//
// Endpoints: POST /decide (request/response JSON documented in
// docs/FORMATS.md), POST /v1/decide/batch (up to -max-batch requests in one
// round trip, deduped through the verdict cache), GET /healthz (liveness),
// GET /readyz (readiness; 503 once draining), GET /statusz (build info +
// admission-control counters + verdict-cache stats),
// GET /metrics (Prometheus text exposition, unless -no-metrics), GET
// /debug/flightrec (recent request/span/degradation events as JSON), GET
// /debug/slowlog (the -slowlog N slowest requests with their span timelines).
//
// The server joins distributed traces: a traceparent request header makes the
// telemetry recorder mint span IDs, parent the request's phase spans to the
// sender's span (the router attempt that carried it), and stamp the trace ID
// into the telemetry snapshot.
//
// Definitive verdicts are cached in a size-bounded LRU keyed by the
// formula's canonical fingerprint (alpha-renaming- and commutativity-
// invariant), with single-flight collapsing of concurrent identical
// requests. A bounded memo maps the exact bytes of each formula to its
// fingerprint, so a byte-identical repeat is answered from the cache without
// a parse. -no-cache turns the layer off; per-request bypass is the
// no_cache body field.
// -debug-addr additionally serves expvar, pprof and the flight recorder on
// a separate address.
//
// Every request carries a correlation ID (client-minted via X-Request-Id or
// the request_id body field, server-minted otherwise) that joins the
// response, the structured request log line on stderr, the telemetry
// snapshot and the flight-recorder events.
//
// On SIGTERM or SIGINT the server drains: readiness flips to 503, new
// requests are shed with Retry-After, already-admitted requests finish — or
// are cancelled when -drain-timeout expires — and the process exits 0 on a
// clean drain, 1 otherwise. A second signal kills the process immediately.
// On SIGQUIT the process dumps the flight recorder (to -flightrec-out, or
// stderr) and exits 2 — the post-mortem path for a wedged instance.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sufsat"
	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// dumpFlight writes the flight-recorder ring to path ("" = stderr).
func dumpFlight(path string) error {
	out := os.Stderr
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return obs.Flight.WriteJSON(out)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (port 0 picks a free port)")
	queueCap := flag.Int("queue", 64, "admission queue capacity; excess load is shed with 503")
	workers := flag.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS / per-request SAT workers)")
	solverWorkers := flag.Int("j", 1, "per-request parallel SAT worker ceiling (0 = GOMAXPROCS)")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Second, "deadline for requests that name none")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "per-request deadline ceiling")
	maxTrans := flag.Int("maxtrans", 0, "transitivity-clause ceiling per request (0 = none)")
	maxCNF := flag.Int("maxcnf", 0, "CNF problem-clause ceiling per request (0 = none)")
	maxConflicts := flag.Int64("maxconflicts", 0, "SAT conflict ceiling per request (0 = none)")
	maxMem := flag.Int64("maxmem", 0, "estimated memory ceiling per request in bytes (0 = none)")
	noDegrade := flag.Bool("nodegrade", false, "disable the lazy-path degradation ladder")
	noCache := flag.Bool("no-cache", false, "disable the verdict cache and single-flight collapsing")
	cacheEntries := flag.Int("cache-entries", 0, "verdict cache entry bound (0 = default, negative = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 0, "verdict cache resident-byte bound (0 = default, negative = unbounded)")
	maxBatch := flag.Int("max-batch", 0, "items accepted per /v1/decide/batch request (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight requests on SIGTERM before they are cancelled")
	debugAddr := flag.String("debug-addr", "", "serve expvar, pprof and the flight recorder on this extra address (e.g. :6060)")
	slowlogK := flag.Int("slowlog", 0, "slow-request exemplars kept for /debug/slowlog (0 = default 32)")
	noMetrics := flag.Bool("no-metrics", false, "disable the /metrics endpoint and the aggregation behind it")
	flightOut := flag.String("flightrec-out", "", "write the SIGQUIT flight-recorder dump to this file (default stderr)")
	quiet := flag.Bool("quiet", false, "suppress lifecycle and request logging")
	noHistory := flag.Bool("no-history", false, "disable the metrics history ring, SLO engine and trigger-fired profiling")
	historyInterval := flag.Duration("history-interval", 0, "metrics history snapshot cadence (0 = 5s)")
	historySlots := flag.Int("history-slots", 0, "metrics history ring slots (0 = 768)")
	sloFast := flag.Duration("slo-fast", 0, "SLO fast burn-rate window (0 = 5m)")
	sloSlow := flag.Duration("slo-slow", 0, "SLO slow burn-rate window (0 = 1h)")
	sloP95 := flag.Duration("slo-latency-p95", 0, "latency-p95 SLO threshold (0 = 500ms)")
	sloP99 := flag.Duration("slo-latency-p99", 0, "latency-p99 SLO threshold (0 = 2s)")
	profileDir := flag.String("profile-dir", "", "also spill trigger-fired pprof captures to this directory")
	profileCPU := flag.Duration("profile-cpu", 0, "CPU profile duration per trigger-fired capture (0 = 1s)")
	profileGap := flag.Duration("profile-gap", 0, "minimum gap between trigger-fired captures (0 = 60s)")
	profileSlowMS := flag.Float64("profile-slow-ms", 0, "capture a profile when a slowlog admission exceeds this many ms (0 = off)")
	flag.Parse()

	if *solverWorkers <= 0 {
		*solverWorkers = runtime.GOMAXPROCS(0)
	}

	cfg := server.Config{
		MaxQueue:       *queueCap,
		Workers:        *workers,
		DefaultTimeout: *defaultDeadline,
		Limits: sufsat.Limits{
			MaxTimeout:        *maxDeadline,
			MaxSolverWorkers:  *solverWorkers,
			MaxTransClauses:   *maxTrans,
			MaxCNFClauses:     *maxCNF,
			MaxConflicts:      *maxConflicts,
			MaxMemoryEstimate: *maxMem,
		},
		NoDegrade:    *noDegrade,
		NoCache:      *noCache,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		MaxBatch:     *maxBatch,
		SlowLogSize:  *slowlogK,

		NoHistory:          *noHistory,
		HistoryInterval:    *historyInterval,
		HistorySlots:       *historySlots,
		SLOFastWindow:      *sloFast,
		SLOSlowWindow:      *sloSlow,
		SLOLatencyP95:      *sloP95,
		SLOLatencyP99:      *sloP99,
		ProfileDir:         *profileDir,
		ProfileCPUDuration: *profileCPU,
		ProfileMinGap:      *profileGap,
		ProfileSlowMS:      *profileSlowMS,
	}
	if !*quiet {
		cfg.Log = os.Stderr
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if !*noMetrics {
		cfg.Metrics = obs.NewRegistry()
	}

	// A crashing panic on the main goroutine still leaves a flight dump —
	// the last seconds of request history next to the stack trace.
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintln(os.Stderr, "sufserved: panic, dumping flight recorder")
			dumpFlight(*flightOut) //nolint:errcheck // already crashing
			panic(v)
		}
	}()

	srv := server.New(cfg)
	obs.PublishService(srv.Probe())
	if *debugAddr != "" {
		dsrv, daddr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sufserved:", err)
			os.Exit(1)
		}
		defer dsrv.Close()
		fmt.Fprintf(os.Stderr, "sufserved: debug endpoint on http://%s/debug/vars\n", daddr)
	}

	bi := obs.GetBuildInfo()
	fmt.Fprintf(os.Stderr, "sufserved: build version=%s go=%s revision=%s\n",
		bi.Version, bi.GoVersion, bi.Revision)

	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufserved:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sufserved: listening on http://%s\n", bound)

	// SIGQUIT: dump the flight recorder and exit 2, replacing the runtime's
	// stack-dump disposition with a structured post-mortem.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		<-quitCh
		fmt.Fprintln(os.Stderr, "sufserved: SIGQUIT, dumping flight recorder")
		if err := dumpFlight(*flightOut); err != nil {
			fmt.Fprintln(os.Stderr, "sufserved: flight dump:", err)
		}
		os.Exit(2)
	}()

	// First SIGTERM/SIGINT starts the drain; a second one restores the
	// default disposition and kills the process.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-sigCtx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "sufserved: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Shutdown(drainCtx)

	// Flush telemetry: the final admission-control counters, so the drain
	// leaves an audit line even without the debug endpoint.
	c := srv.Probe().Counters()
	fmt.Fprintf(os.Stderr,
		"sufserved: drained: admitted=%d completed=%d shed(queue=%d deadline=%d draining=%d) degraded=%d panics=%d malformed=%d\n",
		c.Admitted, c.Completed, c.ShedQueueFull, c.ShedDeadline, c.ShedDraining,
		c.Degraded, c.Panics, c.Malformed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufserved: drain:", err)
		os.Exit(1)
	}
}
