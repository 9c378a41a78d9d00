// Package router is the fleet front tier: an HTTP router that spreads
// decision requests over a pool of sufserved backends by consistent-hashing
// the canonical formula fingerprint, with active+passive health checking
// driving a per-backend circuit breaker, budgeted failover to the next ring
// node, and hedged requests after a p95-derived delay. The router never
// blocks on a full fleet: when no backend can take a request it degrades to
// an immediate 503 with an aggregated Retry-After, mirroring the
// load-shedding discipline of internal/server one tier up.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/history"
	"sufsat/internal/obs/slo"
	"sufsat/internal/server"
)

// Router-level shed reasons (Response.ShedReason on a router 503). The
// backend reasons (queue-full, deadline, draining) pass through when a
// backend shed is the final answer; these name conditions only the router
// can see.
const (
	// ShedRouterFull: the router's own in-flight cap is reached.
	ShedRouterFull = "router-full"
	// ShedDraining: the router is draining after Shutdown.
	ShedDraining = "draining"
	// ShedBackendsOpen: every candidate backend's breaker is open.
	ShedBackendsOpen = "backends-open"
	// ShedBackendsShedding: every attempt was answered with a backend 503.
	ShedBackendsShedding = "backends-shedding"
	// ShedFailoverBudget: a failover was warranted but the retry budget is
	// exhausted — the fleet is failing broadly and retries would amplify it.
	ShedFailoverBudget = "failover-budget"
)

// Config parameterizes a Router. Backends is required; every other field
// has a production default.
type Config struct {
	// Backends are the sufserved base URLs forming the pool.
	Backends []string
	// Replicas is the virtual-node count per backend on the ring (0 = 64).
	Replicas int

	// HealthInterval is the active /readyz probe cadence per backend, jittered
	// ±50% so probes de-synchronize (0 = 500ms). ProbeTimeout bounds one probe
	// (0 = 1s).
	HealthInterval time.Duration
	ProbeTimeout   time.Duration

	// MaxInFlight caps concurrently routed requests; admission past it is an
	// immediate 503, never a blocked goroutine (0 = 256).
	MaxInFlight int
	// MaxAttempts bounds distinct backends tried per request, the primary
	// included (0 = 3).
	MaxAttempts int

	// FailoverRatio/FailoverBurst parameterize the retry budget: a request may
	// fail over while spent < burst + ratio·requests (0 = 0.2 ratio, 10 burst).
	FailoverRatio float64
	FailoverBurst int

	// HedgeDelay is how long the primary attempt runs before a hedge fires on
	// the next ring node. 0 derives it per request from the primary backend's
	// p95 latency (clamped to [5ms, 2s]); negative disables hedging.
	HedgeDelay time.Duration
	// HedgeRatio/HedgeBurst parameterize the hedge budget (0 = 0.1 ratio,
	// 5 burst).
	HedgeRatio float64
	HedgeBurst int

	// DefaultTimeout is applied when a request carries no timeout_ms
	// (0 = 10s); MaxTimeout clamps what a request may ask for (0 = 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequestBytes bounds the /decide request body (0 = 1 MiB).
	MaxRequestBytes int64

	// Breaker configures every backend's circuit breaker.
	Breaker BreakerConfig

	// Registry receives the sufrouter_* metric families (nil disables
	// metrics). Log receives failover/shed lines (nil = silent).
	Registry *obs.Registry
	Log      *log.Logger

	// SlowLogSize bounds the slow-request exemplar store served at
	// /debug/slowlog (0 = obs.DefaultSlowLogSize).
	SlowLogSize int

	// NoHistory disables the metrics-history ring, the SLO engine and
	// trigger-fired profiling. History also stays off when Registry is nil.
	NoHistory bool
	// HistoryInterval is the history snapshot cadence and HistorySlots the
	// ring bound (zero = the history package defaults). Served at
	// /debug/history.
	HistoryInterval time.Duration
	HistorySlots    int
	// SLOFastWindow/SLOSlowWindow set the burn-rate engine's two windows
	// (zero = the slo package defaults: 5m, 1h).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	// SLOLatencyP95/SLOLatencyP99 parameterize the slo.RouterObjectives
	// latency objectives (0 = 1s / 4s — router budgets sit above the
	// backend's).
	SLOLatencyP95 time.Duration
	SLOLatencyP99 time.Duration
	// ProfileDir/ProfileCPUDuration/ProfileMinGap tune trigger-fired
	// profiling (listed at /debug/profiles); ProfileSlowMS > 0 additionally
	// fires a capture on slowlog admissions at least that slow.
	ProfileDir         string
	ProfileCPUDuration time.Duration
	ProfileMinGap      time.Duration
	ProfileSlowMS      float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = 64
	}
	if out.HealthInterval <= 0 {
		out.HealthInterval = 500 * time.Millisecond
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = time.Second
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = 256
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.FailoverRatio <= 0 {
		out.FailoverRatio = 0.2
	}
	if out.FailoverBurst <= 0 {
		out.FailoverBurst = 10
	}
	if out.HedgeRatio <= 0 {
		out.HedgeRatio = 0.1
	}
	if out.HedgeBurst <= 0 {
		out.HedgeBurst = 5
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.MaxRequestBytes <= 0 {
		out.MaxRequestBytes = 1 << 20
	}
	return out
}

// Router routes /decide requests across the backend pool. Create with New,
// serve via Handler, stop with Shutdown. Membership is dynamic: the pool
// lives in a copy-on-write fleetView swapped atomically by Reconfigure and
// the add/drain/remove verbs (membership.go), so in-flight requests keep a
// consistent ring+member snapshot while the pool changes under them.
type Router struct {
	cfg     Config
	view    atomic.Pointer[fleetView]
	metrics *obs.RouterMetrics
	slow    *obs.SlowLog
	keys    *server.KeyMemo // ring keys by formula bytes

	hist     *history.History
	slos     *slo.Engine
	profiles *obs.ProfileStore

	failoverBudget *Budget
	hedgeBudget    *Budget

	inFlight atomic.Int64
	draining atomic.Bool

	// memberMu serializes membership changes (and Shutdown's draining flip,
	// so no prober starts after the probers have been joined). epoch counts
	// effective membership changes, starting at 1; lastMoveRatio holds the
	// float64 bits of the latest change's sampled moved-key ratio.
	memberMu      sync.Mutex
	epoch         atomic.Uint64
	lastMoveRatio atomic.Uint64

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
	reqWG       sync.WaitGroup
	bgWG        sync.WaitGroup
}

// New builds the router, registers its metrics, and starts the health
// probers. Configured backends start active; backends added later via the
// membership API start joining.
func New(cfg Config) (*Router, error) {
	c := cfg.withDefaults()
	urls, err := ParseBackendList(c.Backends)
	if err != nil {
		return nil, err
	}
	if len(urls) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	rt := &Router{
		cfg:            c,
		failoverBudget: NewBudget(c.FailoverRatio, c.FailoverBurst),
		hedgeBudget:    NewBudget(c.HedgeRatio, c.HedgeBurst),
		slow:           obs.NewSlowLog(c.SlowLogSize),
		keys:           server.NewKeyMemo(),
	}
	rt.metrics = obs.NewRouterMetrics(c.Registry, func() float64 {
		return float64(rt.inFlight.Load())
	})
	rt.metrics.RegisterMembership(
		func() float64 { return float64(rt.epoch.Load()) },
		rt.LastMoveRatio,
	)
	if c.Registry != nil && !c.NoHistory {
		rt.hist = history.New(c.Registry, history.Config{
			Interval:   c.HistoryInterval,
			Slots:      c.HistorySlots,
			OnSnapshot: func() { rt.slos.Evaluate() },
		})
		objs := slo.RouterObjectives(c.SLOLatencyP95, c.SLOLatencyP99)
		rt.slos = slo.New(c.Registry, rt.hist, obs.Flight, "sufrouter", objs, slo.Config{
			FastWindow: c.SLOFastWindow,
			SlowWindow: c.SLOSlowWindow,
		})
		rt.profiles = obs.NewProfileStore(obs.ProfileConfig{
			Dir:         c.ProfileDir,
			CPUDuration: c.ProfileCPUDuration,
			MinGap:      c.ProfileMinGap,
			Flight:      obs.Flight,
		})
		rt.slos.OnBurn(func(name string) {
			reqID, traceID := "", ""
			if top := rt.slow.Entries(); len(top) > 0 {
				reqID, traceID = top[0].RequestID, top[0].TraceID
			}
			if rt.profiles.TryCapture("slo:"+name, reqID, traceID) && rt.cfg.Log != nil {
				rt.cfg.Log.Printf("slo %s burning, capturing profile", name)
			}
		})
		c.Registry.CounterFunc("sufrouter_profile_captures_total",
			"Trigger-fired profile capture attempts by result.",
			func() float64 { return float64(rt.profiles.Captured()) }, "result", "captured")
		c.Registry.CounterFunc("sufrouter_profile_captures_total",
			"Trigger-fired profile capture attempts by result.",
			func() float64 { return float64(rt.profiles.Suppressed()) }, "result", "suppressed")
		rt.hist.Start()
	}
	rt.probeCtx, rt.probeCancel = context.WithCancel(context.Background())
	members := make(map[string]*backend, len(urls))
	ring := NewRing(c.Replicas)
	for _, url := range urls {
		b := newBackend(url, c.Breaker, MemberActive)
		members[url] = b
		ring.Add(url)
		rt.registerBackendMetrics(url)
	}
	rt.view.Store(&fleetView{ring: ring, members: members})
	rt.epoch.Store(1)
	for _, b := range members {
		rt.startProber(b)
	}
	return rt, nil
}

// startProber launches b's health-probe goroutine under its own cancel
// (derived from the router-wide probe context) so a removed member's prober
// can be reaped individually while Shutdown still stops them all. Caller
// holds memberMu or is New.
func (rt *Router) startProber(b *backend) {
	pctx, cancel := context.WithCancel(rt.probeCtx)
	b.probeCancel = cancel
	b.probeDone = make(chan struct{})
	rt.probeWG.Add(1)
	go rt.probeLoop(pctx, b)
}

// probeLoop actively probes one backend's /readyz at the configured cadence,
// jittered ±50%, feeding the breaker's active signal.
func (rt *Router) probeLoop(ctx context.Context, b *backend) {
	defer close(b.probeDone)
	defer rt.probeWG.Done()
	interval := rt.cfg.HealthInterval
	for {
		d := interval/2 + time.Duration(rand.Int63n(int64(interval)+1))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		err := b.cl.Probe(pctx)
		cancel()
		if ctx.Err() != nil {
			return
		}
		b.br.ReportProbe(err == nil)
		if err != nil {
			rt.metrics.ObserveProbeFailure(b.name)
		} else if b.activate() {
			// First healthy probe of a joining member: it is a full peer now.
			if rt.cfg.Log != nil {
				rt.cfg.Log.Printf("backend %s joining -> active (probe)", b.name)
			}
		}
	}
}

// Shutdown stops accepting work, halts the probers, and waits for in-flight
// requests (and their loser-attempt reapers) to finish, bounded by ctx.
func (rt *Router) Shutdown(ctx context.Context) error {
	// Under memberMu so no membership change (which may start probers) races
	// the prober join below.
	rt.memberMu.Lock()
	rt.draining.Store(true)
	rt.memberMu.Unlock()
	rt.probeCancel()
	rt.probeWG.Wait()
	// Stop the history collector and let any in-flight profile capture
	// finish so a drained router leaks no goroutines.
	rt.hist.Stop()
	rt.profiles.Wait()
	done := make(chan struct{})
	go func() {
		rt.reqWG.Wait()
		rt.bgWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		// All in-flight work settled: drop every member's keep-alive pool so
		// a drained router leaves no conn goroutines behind.
		for _, b := range rt.view.Load().members {
			b.closeIdle()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("router: shutdown: %w", ctx.Err())
	}
}

// Backends returns the names of members currently owning ring keys (the
// non-draining pool), sorted.
func (rt *Router) Backends() []string { return rt.view.Load().ring.Backends() }

// BackendState reports a member's breaker state (ok=false for unknown).
func (rt *Router) BackendState(name string) (BreakerState, bool) {
	b, ok := rt.member(name)
	if !ok {
		return 0, false
	}
	return b.br.State(), true
}

// Handler returns the router's HTTP surface:
//
//	POST /decide         routed decision requests
//	GET  /healthz        liveness (always 200)
//	GET  /readyz         readiness (503 while draining or with every breaker open)
//	GET  /statusz        human-readable backend table
//	GET  /metrics        Prometheus exposition (when a Registry is configured)
//	GET  /debug/slowlog  slow-request exemplars (merged cross-tier timelines)
//	GET/PUT/POST /admin/backends  membership control plane (admin.go)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", rt.handleDecide)
	mux.HandleFunc("/admin/backends", rt.handleAdminBackends)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/statusz", rt.handleStatusz)
	if reg := rt.metrics.Registry(); reg != nil {
		mux.Handle("/metrics", reg.Handler())
	}
	mux.Handle("/debug/slowlog", rt.slow.Handler())
	mux.Handle("/debug/history", rt.hist.Handler())
	mux.Handle("/debug/profiles", rt.profiles.Handler())
	return mux
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	for _, b := range rt.view.Load().members {
		if !b.isDraining() && b.br.State() != BreakerOpen {
			io.WriteString(w, "ok\n") //nolint:errcheck
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "all backends open or draining\n") //nolint:errcheck
}

func (rt *Router) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	v := rt.view.Load()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "sufrouter  backends=%d  active=%d  epoch=%d  in_flight=%d  draining=%v\n",
		len(v.members), v.ring.Len(), rt.epoch.Load(), rt.inFlight.Load(), rt.draining.Load())
	fmt.Fprintf(w, "failover budget spent=%d  hedge budget spent=%d  last_move_ratio=%.3f\n",
		rt.failoverBudget.Spent(), rt.hedgeBudget.Spent(), rt.LastMoveRatio())
	// The router's own objectives: the same data /statusz serves as JSON on a
	// backend, rendered as one line per objective.
	for _, st := range rt.slos.Status() {
		fmt.Fprintf(w, "slo %-14s state=%-8s fast=%-8.3f slow=%-8.3f budget=%.3f transitions=%d\n",
			st.Name, st.State, st.FastBurn, st.SlowBurn, st.Budget, st.Transitions)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(v.members))
	for name := range v.members {
		names = append(names, name)
	}
	sort.Strings(names)
	// Federate per-backend SLO state: each backend's /statusz slo block,
	// fetched concurrently under a short deadline so a hung backend cannot
	// stall the fleet table ("?" marks an unreachable or pre-SLO backend).
	backendSLO := rt.fetchBackendSLO(names)
	fmt.Fprintf(w, "%-40s %-10s %-10s %-10s %-12s %-10s %s\n",
		"BACKEND", "MEMBER", "BREAKER", "ERR-EWMA", "PROBE-FAILS", "REOPEN-IN", "SLO")
	for _, name := range names {
		b := v.members[name]
		fmt.Fprintf(w, "%-40s %-10s %-10s %-10.3f %-12d %-10s %s\n",
			name, b.memberState(), b.br.State(), b.br.ErrorRate(),
			b.br.ConsecutiveProbeFailures(), b.br.ReopenIn().Round(time.Millisecond),
			backendSLO[name])
	}
}

// fetchBackendSLO collects each backend's /statusz slo block concurrently
// (500ms deadline per fetch) and summarizes it: "ok", "burning(a,b)", "-"
// for a backend without an SLO engine, "?" for one that cannot be reached.
func (rt *Router) fetchBackendSLO(names []string) map[string]string {
	out := make(map[string]string, len(names))
	var mu sync.Mutex
	var wg sync.WaitGroup
	cl := &http.Client{Timeout: 500 * time.Millisecond}
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			state := rt.backendSLOState(cl, name)
			mu.Lock()
			out[name] = state
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	return out
}

// backendSLOState fetches and summarizes one backend's SLO block.
func (rt *Router) backendSLOState(cl *http.Client, base string) string {
	resp, err := cl.Get(base + "/statusz")
	if err != nil {
		return "?"
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "?"
	}
	var status struct {
		SLO []slo.Status `json:"slo"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&status); err != nil {
		return "?"
	}
	if len(status.SLO) == 0 {
		return "-"
	}
	var burning []string
	for _, st := range status.SLO {
		if st.State == "burning" {
			burning = append(burning, st.Name)
		}
	}
	if len(burning) == 0 {
		return "ok"
	}
	return "burning(" + strings.Join(burning, ",") + ")"
}

// writeJSON writes resp with the given HTTP status, setting the correlation
// and backpressure headers the way internal/server does.
func writeJSON(w http.ResponseWriter, status int, resp *server.Response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.RequestID != "" {
		w.Header().Set("X-Request-Id", resp.RequestID)
	}
	if status == http.StatusServiceUnavailable && resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

func (rt *Router) shed(w http.ResponseWriter, reqID, reason string, retryAfter time.Duration, start time.Time) {
	rt.metrics.ObserveShed(reason)
	rt.metrics.ObserveRequest("shed", time.Since(start).Seconds())
	if rt.cfg.Log != nil {
		rt.cfg.Log.Printf("shed reason=%s retry_after=%s request_id=%s", reason, retryAfter, reqID)
	}
	writeJSON(w, http.StatusServiceUnavailable, &server.Response{
		Status:       "shed",
		RequestID:    reqID,
		ShedReason:   reason,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

func (rt *Router) malformed(w http.ResponseWriter, reqID, msg string, start time.Time) {
	rt.metrics.ObserveRequest("malformed", time.Since(start).Seconds())
	writeJSON(w, http.StatusBadRequest, &server.Response{
		Status:    "malformed",
		RequestID: reqID,
		Error:     msg,
	})
}

func (rt *Router) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Correlation ID: obs.ResolveRequestID, the backend's precedence, so
	// one ID spans router log, backend log and response. Responses written
	// before the body is decoded take the header's ID or a minted one.
	hdrID := r.Header.Get("X-Request-Id")
	if rt.draining.Load() {
		rt.shed(w, obs.ResolveRequestID(hdrID, ""), ShedDraining, time.Second, start)
		return
	}
	// Admission: a full router answers 503 immediately; it never queues, so
	// backpressure propagates to clients instead of accumulating here.
	if n := rt.inFlight.Add(1); n > int64(rt.cfg.MaxInFlight) {
		rt.inFlight.Add(-1)
		rt.shed(w, obs.ResolveRequestID(hdrID, ""), ShedRouterFull, time.Second, start)
		return
	}
	defer rt.inFlight.Add(-1)
	rt.reqWG.Add(1)
	defer rt.reqWG.Done()

	// A body of known length within the limit is read into one buffer of
	// that size; any other through a reader that stops one byte past it.
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= rt.cfg.MaxRequestBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxRequestBytes+1))
	}
	if err != nil {
		rt.malformed(w, obs.ResolveRequestID(hdrID, ""), "read request body: "+err.Error(), start)
		return
	}
	if int64(len(body)) > rt.cfg.MaxRequestBytes {
		rt.malformed(w, obs.ResolveRequestID(hdrID, ""), fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxRequestBytes), start)
		return
	}
	var req server.Request
	if err := json.Unmarshal(body, &req); err != nil {
		rt.malformed(w, obs.ResolveRequestID(hdrID, ""), "decode request: "+err.Error(), start)
		return
	}
	req.RequestID = obs.ResolveRequestID(hdrID, req.RequestID)

	// The ring key is Fingerprint, memoized by the exact formula bytes: it
	// equals the backend's cache key, and a byte-identical repeat is routed
	// without a parse.
	fp, err := rt.keys.Fingerprint(req.Formula, req.SMT2)
	if err != nil {
		rt.malformed(w, req.RequestID, "parse formula: "+err.Error(), start)
		return
	}

	// Trace context: join the sender's trace when a traceparent header came
	// in; root a fresh trace when the request wants telemetry (the merged
	// timeline is part of the snapshot); otherwise stay untraced and track
	// only the disposition flags for the slowlog.
	traceID, parentSpan, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if traceID == "" && req.WantTelemetry {
		traceID = obs.NewTraceID()
	}
	tr := newRouteTrace(req.RequestID, traceID, parentSpan)

	// Deadline: the request's budget (or the default), clamped, forwarded to
	// the backend via timeout_ms, plus one second of router grace so the
	// backend's own timeout verdict arrives instead of being cut off mid-body.
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = rt.cfg.DefaultTimeout
	}
	if timeout > rt.cfg.MaxTimeout {
		timeout = rt.cfg.MaxTimeout
	}
	req.TimeoutMS = timeout.Milliseconds()
	ctx, cancel := context.WithTimeout(r.Context(), timeout+time.Second)
	defer cancel()

	// One view per request: the ring walk and the member lookups below come
	// from the same membership snapshot, so a concurrent reconfiguration
	// never hands this request a ring entry it cannot resolve.
	v := rt.view.Load()
	order := v.ring.Order(fp, rt.cfg.MaxAttempts)
	resp, who, retryAfter, reason := rt.route(ctx, v, &req, order, tr)
	switch {
	case resp != nil:
		tr.end(resp.Status)
		tr.mergeResponse(resp)
		w.Header().Set("X-Sufrouter-Backend", who)
		rt.metrics.ObserveRequest(resp.Status, time.Since(start).Seconds())
		rt.observeSlow(tr, resp, req.RequestID, traceID, fp, who, time.Since(start))
		writeJSON(w, resp.HTTPStatus, resp)
	case reason != "":
		tr.end("shed")
		rt.shed(w, req.RequestID, reason, retryAfter, start)
	default:
		// The router's deadline (request budget + grace) expired with no
		// answer: report a timeout upward rather than hanging.
		tr.end("timeout")
		rt.metrics.ObserveRequest("timeout", time.Since(start).Seconds())
		rt.observeSlow(tr, nil, req.RequestID, traceID, fp, "", time.Since(start))
		writeJSON(w, http.StatusGatewayTimeout, &server.Response{
			Status:    "timeout",
			RequestID: req.RequestID,
			Error:     "router: request deadline exceeded before any backend answered",
			TotalMS:   float64(time.Since(start).Milliseconds()),
		})
	}
}

// observeSlow feeds a finished request into the slow-request exemplar log:
// correlation IDs, verdict, routing disposition (hedge / failover / cache)
// and — when the winning response carried telemetry — the merged cross-tier
// timeline. resp nil records a router-side timeout.
func (rt *Router) observeSlow(tr *routeTrace, resp *server.Response, reqID, traceID, fp, who string, total time.Duration) {
	totalMS := float64(total.Microseconds()) / 1e3
	if rt.cfg.ProfileSlowMS > 0 && totalMS >= rt.cfg.ProfileSlowMS {
		rt.profiles.TryCapture("slowlog", reqID, traceID)
	}
	if !rt.slow.Candidate(totalMS) {
		return
	}
	e := obs.SlowEntry{
		RequestID:   reqID,
		TraceID:     traceID,
		Status:      "timeout",
		Fingerprint: fp,
		TotalMS:     totalMS,
		Hedged:      tr.hedged,
		HedgeWon:    tr.hedgeWon(),
		FailedOver:  tr.failedOver,
		Backend:     who,
	}
	if resp != nil {
		e.Status = resp.Status
		e.Method = resp.Method
		e.Cached = resp.Cached
		if resp.Telemetry != nil {
			e.Spans = resp.Telemetry.Spans
		}
	}
	rt.slow.Observe(e)
}

// attemptResult is one backend attempt's outcome.
type attemptResult struct {
	b          *backend
	trial      bool
	hedge      bool
	resp       *server.Response
	retryAfter time.Duration
	err        error
	elapsed    time.Duration
}

// launch fires one attempt against b under its own cancelable context and
// reports the outcome on ch. The returned cancel aborts the attempt. tp is
// the attempt's traceparent ("" when untraced); the request is shallow-copied
// before stamping it so concurrent attempts never share the mutable field.
func (rt *Router) launch(ctx context.Context, b *backend, trial, hedge bool, tp string, req *server.Request, ch chan<- attemptResult) context.CancelFunc {
	if tp != "" {
		c := *req
		c.Traceparent = tp
		req = &c
	}
	actx, cancel := context.WithCancel(ctx)
	go func() {
		begin := time.Now()
		resp, ra, err := b.cl.DecideOnce(actx, req)
		ch <- attemptResult{
			b: b, trial: trial, hedge: hedge,
			resp: resp, retryAfter: ra, err: err,
			elapsed: time.Since(begin),
		}
	}()
	return cancel
}

// reapAsync drains n outstanding attempt results in the background so loser
// attempts still settle their breaker bookkeeping (a canceled trial must
// release its half-open slot) without delaying the winning response.
// Tracked by bgWG so Shutdown (and leak checks) wait for it.
func (rt *Router) reapAsync(ch <-chan attemptResult, n int) {
	if n == 0 {
		return
	}
	rt.bgWG.Add(1)
	go func() {
		defer rt.bgWG.Done()
		for i := 0; i < n; i++ {
			r := <-ch
			switch {
			case r.err == nil:
				// The loser finished with an answer anyway: real signal.
				r.b.br.ReportSuccess(r.trial)
				r.b.lat.Observe(r.elapsed)
			case errors.Is(r.err, context.Canceled):
				r.b.br.ReportCanceled(r.trial)
			default:
				r.b.br.ReportFailure(r.trial)
			}
		}
	}()
}

// hedgeDelayFor resolves the hedge delay for a request whose primary is b:
// the configured fixed delay, or the backend's observed p95 clamped to
// [5ms, 2s]. Negative means hedging is disabled.
func (rt *Router) hedgeDelayFor(b *backend) time.Duration {
	if rt.cfg.HedgeDelay < 0 {
		return -1
	}
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay
	}
	d := b.lat.Quantile(0.95)
	if d == 0 {
		d = 50 * time.Millisecond
	}
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// raOrDefault turns the aggregated backpressure signal into a usable
// Retry-After: at least one second, at most thirty.
func raOrDefault(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// route runs the attempt race for one request: primary on the fingerprint's
// home node, a budgeted hedge on the next ring node after the hedge delay,
// and budgeted failover down the preference order on failure. First answer
// wins and the loser is canceled (its context observes cancellation
// promptly). Returns exactly one of: a response (with the winning backend's
// name), a shed reason (with the aggregated Retry-After), or neither when
// ctx expired.
func (rt *Router) route(ctx context.Context, v *fleetView, req *server.Request, order []string, tr *routeTrace) (resp *server.Response, who string, retryAfter time.Duration, reason string) {
	rt.failoverBudget.Note()
	rt.hedgeBudget.Note()

	var maxRA time.Duration // aggregated backpressure across attempts
	sawShed := false

	// nextAllowed walks the preference order past open breakers, collecting
	// their reopen times into the aggregated Retry-After. The membership
	// state is read live (not from the view): a backend drained after this
	// request was admitted must not be chosen as a hedge or failover target,
	// even though the request's ring snapshot still lists it.
	idx := 0
	nextAllowed := func() (*backend, bool, bool) {
		for idx < len(order) {
			b := v.members[order[idx]]
			idx++
			if b == nil || b.isDraining() {
				continue
			}
			if ok, trial := b.br.Allow(); ok {
				return b, trial, true
			}
			if ra := b.br.ReopenIn(); ra > maxRA {
				maxRA = ra
			}
		}
		return nil, false, false
	}

	ch := make(chan attemptResult, len(order)+1)
	cancels := make(map[*backend]context.CancelFunc, 2)
	inflight := 0
	cancelLosers := func(winner *backend) {
		for b, c := range cancels {
			if b != winner {
				c()
			}
		}
		rt.reapAsync(ch, inflight)
	}

	primary, trial, ok := nextAllowed()
	if !ok {
		return nil, "", raOrDefault(maxRA), ShedBackendsOpen
	}
	cancels[primary] = rt.launch(ctx, primary, trial, false, tr.startAttempt(primary, "primary", trial), req, ch)
	defer func() {
		// Release every per-attempt context (winner included) once decided.
		for _, c := range cancels {
			c()
		}
	}()
	inflight++

	var hedgeC <-chan time.Time
	if d := rt.hedgeDelayFor(primary); d >= 0 {
		ht := time.NewTimer(d)
		defer ht.Stop()
		hedgeC = ht.C
	}

	for {
		select {
		case <-ctx.Done():
			cancelLosers(nil)
			return nil, "", 0, ""

		case <-hedgeC:
			hedgeC = nil // at most one hedge per request
			if !rt.hedgeBudget.Allow() {
				rt.metrics.HedgeDenied()
				continue
			}
			hb, htrial, hok := nextAllowed()
			if !hok {
				continue
			}
			rt.metrics.Hedge()
			cancels[hb] = rt.launch(ctx, hb, htrial, true, tr.startAttempt(hb, "hedge", htrial), req, ch)
			inflight++

		case r := <-ch:
			inflight--
			if r.err == nil && r.resp.HTTPStatus != http.StatusServiceUnavailable {
				// A definitive answer (decision verdict, or a final 4xx/5xx
				// such as a contained panic) — first answer wins.
				tr.endAttempt(r.b.name, "won", true, r.resp.Cached)
				r.b.br.ReportSuccess(r.trial)
				r.b.lat.Observe(r.elapsed)
				rt.metrics.ObserveAttempt(r.b.name, false)
				if r.b.activate() && rt.cfg.Log != nil {
					rt.cfg.Log.Printf("backend %s joining -> active (won a request)", r.b.name)
				}
				if r.hedge {
					rt.metrics.HedgeWin()
				}
				cancelLosers(r.b)
				return r.resp, r.b.name, 0, ""
			}
			switch {
			case r.err == nil:
				// Backend 503: it answered properly but is shedding — a
				// breaker-healthy outcome that still warrants failover.
				tr.endAttempt(r.b.name, "shed", false, false)
				sawShed = true
				if r.retryAfter > maxRA {
					maxRA = r.retryAfter
				}
				r.b.br.ReportSuccess(r.trial)
				rt.metrics.ObserveAttempt(r.b.name, false)
			case errors.Is(r.err, context.Canceled) && ctx.Err() == nil:
				// Canceled by the router, not a backend fault.
				tr.endAttempt(r.b.name, "canceled", false, false)
				r.b.br.ReportCanceled(r.trial)
			default:
				tr.endAttempt(r.b.name, "failed", false, false)
				r.b.br.ReportFailure(r.trial)
				rt.metrics.ObserveAttempt(r.b.name, true)
				if rt.cfg.Log != nil {
					rt.cfg.Log.Printf("attempt failed backend=%s hedge=%v request_id=%s err=%v",
						r.b.name, r.hedge, req.RequestID, r.err)
				}
			}
			// Replace the failed attempt with the next candidate even while
			// another attempt is still in flight: a hung (blackholed) primary
			// must not block failover of its failed hedge — the race simply
			// gains a fresh runner.
			nb, ntrial, nok := nextAllowed()
			if !nok {
				if inflight > 0 {
					continue // only the in-flight attempt can answer now
				}
				reason := ShedBackendsOpen
				if sawShed {
					reason = ShedBackendsShedding
				}
				return nil, "", raOrDefault(maxRA), reason
			}
			if !rt.failoverBudget.Allow() {
				rt.metrics.FailoverDenied()
				if inflight > 0 {
					continue
				}
				return nil, "", raOrDefault(maxRA), ShedFailoverBudget
			}
			rt.metrics.Failover()
			if rt.cfg.Log != nil {
				rt.cfg.Log.Printf("failover to backend=%s request_id=%s", nb.name, req.RequestID)
			}
			cancels[nb] = rt.launch(ctx, nb, ntrial, false, tr.startAttempt(nb, "failover", ntrial), req, ch)
			inflight++
		}
	}
}
