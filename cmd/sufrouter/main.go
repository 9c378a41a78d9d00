// Command sufrouter is the fleet front tier for a pool of sufserved
// backends: it consistent-hashes the canonical formula fingerprint onto the
// backend ring, actively health-checks every backend (/readyz probes plus a
// passive error-rate EWMA) behind a per-backend circuit breaker, fails over
// to the next ring node under a retry budget, hedges slow requests after a
// p95-derived delay, and propagates backend backpressure upstream — a full
// fleet degrades to an immediate 503 with Retry-After, never a hang.
//
// Usage:
//
//	sufrouter -backends URL[,URL...] | -backends-file PATH [-addr :8090]
//	          [-replicas 64] [-health-interval 500ms] [-probe-timeout 1s]
//	          [-max-inflight 256] [-max-attempts 3]
//	          [-hedge-delay auto|off|DUR] [-hedge-ratio 0.1] [-hedge-burst 5]
//	          [-failover-ratio 0.2] [-failover-burst 10]
//	          [-default-deadline 10s] [-max-deadline 60s] [-max-body BYTES]
//	          [-drain-timeout 30s] [-slowlog N] [-no-metrics] [-quiet]
//	          [-no-history] [-history-interval 5s] [-history-slots 768]
//	          [-slo-fast 5m] [-slo-slow 1h] [-slo-latency-p95 1s]
//	          [-slo-latency-p99 4s] [-profile-dir DIR] [-profile-cpu 1s]
//	          [-profile-gap 60s] [-profile-slow-ms MS]
//
// Endpoints: POST /decide (the same request/response JSON as sufserved —
// clients need no changes to talk to the fleet), GET /healthz, GET /readyz
// (503 while draining or with every breaker open), GET /statusz (backend
// membership + breaker table with the membership epoch), GET /metrics
// (sufrouter_* families, docs/FORMATS.md), GET /debug/slowlog (the
// -slowlog N slowest requests with their merged cross-tier span timelines
// and routing disposition), GET /debug/history and GET /debug/profiles
// (trigger-fired captures: on an SLO burn, and on any request that completes
// in at least -profile-slow-ms), and GET/PUT/POST /admin/backends — the
// membership control plane (authenticated by bind: expose the router only
// on trusted networks).
//
// Membership is dynamic: PUT /admin/backends with {"backends":[...]}
// declares the desired active set, POST applies one add/drain/remove verb,
// and with -backends-file the same declarative reload runs on SIGHUP —
// rewrite the file, signal the process, and the router reconfigures through
// the same Reconfigure path with no restart and no dropped in-flight
// requests. Backend lists (flag and file alike) are validated per entry:
// every malformed or duplicate URL is reported, not just the first.
//
// The router participates in distributed traces: an incoming traceparent
// header (or want_telemetry, which roots a fresh trace) makes it record a
// route span plus one attempt span per backend try, propagate the attempt's
// span ID downstream, and merge the winning backend's spans into one
// cross-tier timeline in the response telemetry (validated by
// tracecheck -fleet).
//
// On SIGTERM or SIGINT the router drains: readiness flips to 503, new
// requests are shed, in-flight requests finish (bounded by -drain-timeout),
// probers stop, and the process exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/slo"
	"sufsat/internal/router"
	"sufsat/internal/server"
)

// parseHedgeDelay maps the -hedge-delay spelling onto the Config encoding:
// "auto" (or "0") derives the delay from the primary's p95, "off" disables
// hedging, anything else is a fixed duration.
func parseHedgeDelay(s string) (time.Duration, error) {
	switch s {
	case "auto", "0":
		return 0, nil
	case "off", "none":
		return -1, nil
	}
	return time.ParseDuration(s)
}

// readBackendsFile loads a -backends-file: one URL per line, blank lines
// and #-comment lines ignored, validated per entry through the router's
// shared parser.
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries = append(entries, line)
	}
	return router.ParseBackendList(entries)
}

func main() {
	addr := flag.String("addr", ":8090", "listen address (port 0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated sufserved base URLs")
	backendsFile := flag.String("backends-file", "", "file with one sufserved base URL per line (# comments); SIGHUP reloads it")
	replicas := flag.Int("replicas", 64, "virtual nodes per backend on the hash ring")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "active /readyz probe cadence per backend (jittered)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "timeout for one health probe")
	maxInFlight := flag.Int("max-inflight", 256, "concurrent request cap; excess is shed with 503")
	maxAttempts := flag.Int("max-attempts", 3, "distinct backends tried per request, primary included")
	hedgeDelay := flag.String("hedge-delay", "auto", "hedge fire delay: auto (p95-derived), off, or a duration")
	hedgeRatio := flag.Float64("hedge-ratio", 0.1, "hedge budget: extra attempts per routed request")
	hedgeBurst := flag.Int("hedge-burst", 5, "hedge budget burst allowance")
	failoverRatio := flag.Float64("failover-ratio", 0.2, "failover budget: retries per routed request")
	failoverBurst := flag.Int("failover-burst", 10, "failover budget burst allowance")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Second, "deadline for requests that name none")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "per-request deadline ceiling")
	maxBody := flag.Int64("max-body", 1<<20, "request body byte cap")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight requests on SIGTERM")
	noMetrics := flag.Bool("no-metrics", false, "disable the /metrics endpoint")
	quiet := flag.Bool("quiet", false, "suppress lifecycle and failover logging")
	var obsCfg server.ObsConfig
	obsCfg.RegisterFlags(flag.CommandLine, slo.RouterLatencyP95, slo.RouterLatencyP99)
	flag.Parse()

	var urls []string
	switch {
	case *backends != "" && *backendsFile != "":
		fmt.Fprintln(os.Stderr, "sufrouter: -backends and -backends-file are mutually exclusive")
		os.Exit(2)
	case *backendsFile != "":
		var err error
		if urls, err = readBackendsFile(*backendsFile); err != nil {
			fmt.Fprintln(os.Stderr, "sufrouter: -backends-file:", err)
			os.Exit(2)
		}
	default:
		var err error
		if urls, err = router.ParseBackendList(strings.Split(*backends, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "sufrouter: -backends:", err)
			os.Exit(2)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "sufrouter: -backends or -backends-file is required (sufserved URLs)")
		os.Exit(2)
	}
	hd, err := parseHedgeDelay(*hedgeDelay)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufrouter: -hedge-delay:", err)
		os.Exit(2)
	}

	cfg := router.Config{
		Backends:        urls,
		Replicas:        *replicas,
		HealthInterval:  *healthInterval,
		ProbeTimeout:    *probeTimeout,
		MaxInFlight:     *maxInFlight,
		MaxAttempts:     *maxAttempts,
		FailoverRatio:   *failoverRatio,
		FailoverBurst:   *failoverBurst,
		HedgeDelay:      hd,
		HedgeRatio:      *hedgeRatio,
		HedgeBurst:      *hedgeBurst,
		DefaultTimeout:  *defaultDeadline,
		MaxTimeout:      *maxDeadline,
		MaxRequestBytes: *maxBody,
		ObsConfig:       obsCfg,
	}
	if !*noMetrics {
		cfg.Registry = obs.NewRegistry()
	}
	if !*quiet {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	rt, err := router.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufrouter:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufrouter:", err)
		os.Exit(1)
	}
	hsrv := &http.Server{Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()

	// SIGHUP: reload -backends-file and reconfigure the live pool through
	// the same declarative Reconfigure path the admin PUT uses. Without a
	// backends file the signal is logged and ignored.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	hupDone := make(chan struct{})
	go func() {
		defer close(hupDone)
		for range hup {
			if *backendsFile == "" {
				fmt.Fprintln(os.Stderr, "sufrouter: SIGHUP ignored (no -backends-file)")
				continue
			}
			desired, err := readBackendsFile(*backendsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufrouter: SIGHUP reload:", err)
				continue
			}
			ch, err := rt.Reconfigure(desired)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufrouter: SIGHUP reconfigure:", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "sufrouter: SIGHUP reconfigured epoch=%d backends=%d active=%d added=%d reactivated=%d removed=%d moved=%.3f\n",
				ch.Epoch, ch.Backends, ch.ActiveBackends,
				len(ch.Added), len(ch.Reactivated), len(ch.Removed), ch.KeysMovedRatio)
		}
	}()

	bi := obs.GetBuildInfo()
	fmt.Fprintf(os.Stderr, "sufrouter: build version=%s go=%s revision=%s backends=%d\n",
		bi.Version, bi.GoVersion, bi.Revision, len(urls))
	fmt.Fprintf(os.Stderr, "sufrouter: listening on http://%s\n", ln.Addr())

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-sigCtx.Done():
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "sufrouter:", err)
		os.Exit(1)
	}
	stop()
	fmt.Fprintln(os.Stderr, "sufrouter: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting, then drain the router (probers + in-flight + reapers).
	if err := hsrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sufrouter: http shutdown:", err)
	}
	if err := rt.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sufrouter: drain:", err)
		os.Exit(1)
	}
	signal.Stop(hup)
	close(hup)
	<-hupDone
	fmt.Fprintln(os.Stderr, "sufrouter: drained")
}
