// Package server is the fault-tolerant HTTP serving layer of the decision
// procedure: a bounded admission queue with deadline-aware load shedding in
// front of a fixed worker pool, per-request deadlines and resource budgets
// clamped to server ceilings, a degradation ladder that retries budget-blown
// eager encodings on the cheaper lazy path, per-request panic isolation, and
// SIGTERM graceful drain. cmd/sufserved wraps it as a standalone daemon and
// internal/server/client provides the matching retrying client.
//
// Endpoints:
//
//	POST /decide   — decide one formula (request/response JSON in proto.go,
//	                 schema in docs/FORMATS.md)
//	GET  /healthz  — liveness: 200 while the process runs
//	GET  /readyz   — readiness: 200 while accepting, 503 once draining
//	GET  /statusz  — JSON admission-control counters (obs.ServiceCounters)
//
// Admission control: a request is rejected with 503 + Retry-After — never
// queued — when the server is draining, the queue is at capacity, or the
// queue's estimated wait (depth × EMA service time / workers) would exceed
// the request's deadline. A request whose deadline expires while queued is
// shed at dequeue instead of being solved to no purpose.
//
// Degradation ladder: when an eager request exhausts a resource budget
// (ResourceOut), it is retried once on the lazy path — which needs no eager
// transitivity closure and a far smaller CNF — inside the original deadline;
// when the pool is saturated (queue depth at or above Config.DegradeDepth at
// dequeue), eager requests are routed straight to the lazy path. Both paths
// mark the response Degraded, mirroring the Hybrid encoder's per-class
// EIJ→SD fallback one level up the stack.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sufsat"
	"sufsat/internal/core"
	"sufsat/internal/obs"
	"sufsat/internal/obs/slo"
)

// Server-side fault-point names, called on Config.Hook in request order.
// They extend the core pipeline's stage-hook convention to the serving
// layer, so the faultinject harness can target the request path itself.
const (
	// StageDecode: after reading the body, before parsing the formula.
	StageDecode = "server.decode"
	// StageAdmit: before the admission decision.
	StageAdmit = "server.admit"
	// StageExec: in the pool worker, before the first decision attempt.
	StageExec = "server.exec"
	// StageRespond: before serializing the response.
	StageRespond = "server.respond"
)

// minRetryBudget is the least remaining deadline worth a ResourceOut retry
// on the lazy path.
const minRetryBudget = 20 * time.Millisecond

// Config parameterizes a Server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxQueue bounds the admission queue (0 = 64). Requests beyond it are
	// shed with 503, never queued or blocked on.
	MaxQueue int
	// Workers is the pool size — the number of concurrent Decide calls
	// (0 = GOMAXPROCS / max(1, Limits.MaxSolverWorkers), floored at 1, so
	// parallel per-request SAT workers don't oversubscribe the machine).
	Workers int
	// DefaultTimeout is the per-request deadline applied when the request
	// names none (0 = 10s). Always clamped to Limits.MaxTimeout.
	DefaultTimeout time.Duration
	// Limits are the server ceilings applied to every request's options
	// (zero fields = the matching option stays request-controlled). The
	// zero Limits gets MaxTimeout 60s and MaxSolverWorkers GOMAXPROCS.
	Limits sufsat.Limits
	// MaxRequestBytes caps the request body (0 = 1 MiB).
	MaxRequestBytes int64
	// DegradeDepth is the dequeue-time queue depth at or above which eager
	// requests are routed straight to the cheaper lazy path (0 = ¾ of
	// MaxQueue; negative disables saturation routing).
	DegradeDepth int
	// NoDegrade disables the degradation ladder server-wide.
	NoDegrade bool
	// NoCache disables the verdict cache (and its single-flight collapsing)
	// server-wide; individual requests opt out with Request.NoCache.
	NoCache bool
	// CacheEntries bounds the verdict cache (0 = DefaultCacheEntries;
	// negative = unbounded entry count, byte bound still applies).
	CacheEntries int
	// CacheBytes bounds the cache's estimated resident bytes (0 =
	// DefaultCacheBytes; negative = unbounded).
	CacheBytes int64
	// MaxBatch bounds the item count of one /v1/decide/batch request
	// (0 = 64).
	MaxBatch int
	// Hook, when non-nil, is called at each server fault point (the Stage…
	// constants above) and threaded through to the decision pipeline's own
	// stage hooks. A returned error fails the request with a structured 500;
	// a panic is contained like any per-request panic.
	Hook func(stage string) error
	// Metrics, when non-nil, receives the aggregated metric families
	// (obs.NewServiceMetrics) and is served at /metrics. Nil disables the
	// metrics layer entirely — every observation call no-ops.
	Metrics *obs.Registry
	// Logger, when non-nil, receives the lifecycle lines and one structured
	// record per finished request (status, method, latency split,
	// correlation ID).
	Logger *slog.Logger
	// Flight is the flight-recorder ring request/span/degradation events are
	// recorded into (nil = the process-wide obs.Flight). Served at
	// /debug/flightrec.
	Flight *obs.FlightRecorder
	// ObsConfig tunes the slowlog, metrics history, SLO engine and
	// trigger-fired profiling (Observer).
	ObsConfig
}

// task is one admitted request travelling from the handler to a pool worker.
type task struct {
	ctx      context.Context
	req      *Request
	reqID    string
	opts     sufsat.Options
	formula  sufsat.Formula
	clamped  []string
	rec      *obs.Recorder
	reqSpan  *obs.Span
	enqueued time.Time
	deadline time.Time
	done     chan *Response
	// fp is the canonical fingerprint of the decided formula ("" when the
	// cache is bypassed); flight is the single-flight slot this task leads.
	fp     string
	flight *Flight
}

// Server is the decision service. Create with New, serve its Handler (or
// Serve/ListenAndServe), stop with Shutdown.
type Server struct {
	cfg      Config
	probe    *obs.ServiceProbe
	metrics  *obs.ServiceMetrics
	flight   *obs.FlightRecorder
	observer *Observer

	// cache is the verdict cache and keys maps request bytes to its keys;
	// both are nil when the cache is off.
	cache *Cache
	keys  *KeyMemo

	queue chan *task
	mu    sync.Mutex // guards draining and the queue close
	drain bool

	workersDone chan struct{}
	baseCtx     context.Context
	baseCancel  context.CancelFunc

	emaNS    atomic.Int64 // EMA of per-request service time
	shutOnce sync.Once

	httpMu  sync.Mutex
	httpSrv *http.Server
	conns   map[net.Conn]http.ConnState // open connections' last states, under httpMu
}

// New returns a Server with its worker pool running.
func New(cfg Config) *Server {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Limits.MaxTimeout <= 0 {
		cfg.Limits.MaxTimeout = 60 * time.Second
	}
	if cfg.Limits.MaxSolverWorkers <= 0 {
		cfg.Limits.MaxSolverWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / cfg.Limits.MaxSolverWorkers
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 1 << 20
	}
	if cfg.DegradeDepth == 0 {
		cfg.DegradeDepth = cfg.MaxQueue * 3 / 4
		if cfg.DegradeDepth < 1 {
			cfg.DegradeDepth = 1
		}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	probe := &obs.ServiceProbe{}
	flight := cfg.Flight
	if flight == nil {
		flight = obs.Flight
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		probe:       probe,
		metrics:     obs.NewServiceMetrics(cfg.Metrics, probe, flight),
		flight:      flight,
		queue:       make(chan *task, cfg.MaxQueue),
		workersDone: make(chan struct{}),
		baseCtx:     ctx,
		baseCancel:  cancel,
	}
	if !cfg.NoCache {
		s.cache = NewCache(cfg.CacheEntries, cfg.CacheBytes)
		s.keys = NewKeyMemo()
		s.metrics.RegisterCache(func() obs.CacheCounters {
			st := s.cache.Stats()
			return obs.CacheCounters{
				Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
				SingleflightJoins: st.SingleFlown,
				Entries:           int64(st.Entries), Bytes: st.Bytes,
			}
		})
	}
	s.observer = NewObserver(cfg.ObsConfig, cfg.Metrics, flight, "sufsat",
		slo.ServerObjectives(cfg.SLOLatencyP95, cfg.SLOLatencyP99, !cfg.NoCache), cfg.Logger)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(s.workersDone)
	}()
	s.log("server started", "workers", cfg.Workers, "queue", cfg.MaxQueue, "degrade_depth", cfg.DegradeDepth,
		"default_deadline", cfg.DefaultTimeout, "deadline_ceiling", cfg.Limits.MaxTimeout)
	return s
}

// Probe returns the server's admission-control metrics slot.
func (s *Server) Probe() *obs.ServiceProbe { return s.probe }

// QueueLen reports the current admission-queue depth.
func (s *Server) QueueLen() int { return len(s.queue) }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// log writes one lifecycle line (nil Config.Logger = silent).
func (s *Server) log(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// hook runs the server-side fault point; nil Config.Hook means no-op.
func (s *Server) hook(stage string) error {
	if s.cfg.Hook != nil {
		return s.cfg.Hook(stage)
	}
	return nil
}

// ema returns the current service-time estimate (a floor of 1ms before any
// request has completed, so wait estimates are never zero).
func (s *Server) ema() time.Duration {
	if v := s.emaNS.Load(); v > 0 {
		return time.Duration(v)
	}
	return time.Millisecond
}

// observe folds one completed request's service time into the EMA (α = ⅛).
func (s *Server) observe(d time.Duration) {
	for {
		old := s.emaNS.Load()
		nw := int64(d)
		if old > 0 {
			nw = old + (int64(d)-old)/8
		}
		if s.emaNS.CompareAndSwap(old, nw) {
			return
		}
	}
}

// estimatedWait is the deadline-aware admission estimate: queued requests
// ahead of this one, times the EMA service time, divided across the pool.
func (s *Server) estimatedWait(depth int) time.Duration {
	return time.Duration(int64(depth) * int64(s.ema()) / int64(s.cfg.Workers))
}

// shed builds a 503 response.
func (s *Server) shed(reason string, retryAfter time.Duration) *Response {
	if retryAfter < 10*time.Millisecond {
		retryAfter = 10 * time.Millisecond
	}
	switch reason {
	case ShedQueueFull:
		s.probe.ShedQueueFull()
	case ShedDeadline:
		s.probe.ShedDeadline()
	case ShedDraining:
		s.probe.ShedDraining()
	}
	return &Response{
		Status:       "shed",
		ShedReason:   reason,
		RetryAfterMS: retryAfter.Milliseconds(),
		HTTPStatus:   http.StatusServiceUnavailable,
	}
}

// admit performs the admission decision: reject (shed) or enqueue. It never
// blocks — a full queue is a rejection, not a wait.
func (s *Server) admit(t *task) *Response {
	depth := len(s.queue)
	if wait := s.estimatedWait(depth); time.Now().Add(wait).After(t.deadline) {
		return s.shed(ShedDeadline, wait)
	}
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		return s.shed(ShedDraining, time.Second)
	}
	select {
	case s.queue <- t:
		s.mu.Unlock()
		s.probe.Admitted()
		s.probe.QueueDepth(int64(len(s.queue)))
		return nil
	default:
		s.mu.Unlock()
		return s.shed(ShedQueueFull, s.estimatedWait(s.cfg.MaxQueue))
	}
}

// worker is one pool goroutine: dequeue, shed-or-solve, respond. It exits
// when the queue is closed and drained.
func (s *Server) worker() {
	for t := range s.queue {
		depth := len(s.queue)
		s.probe.QueueDepth(int64(depth))
		queueWait := time.Since(t.enqueued)

		// In-queue deadline shedding: solving a request whose deadline has
		// already passed (or whose client has gone) helps no one.
		if t.ctx.Err() != nil {
			t.finish(nil)
			continue
		}
		if !time.Now().Before(t.deadline) {
			resp := s.shed(ShedDeadline, s.estimatedWait(depth))
			resp.QueueMS = float64(queueWait.Microseconds()) / 1e3
			t.finish(resp)
			continue
		}

		s.probe.InFlightAdd(1)
		start := time.Now()
		resp := s.exec(t, depth, queueWait)
		s.observe(time.Since(start))
		s.probe.InFlightAdd(-1)
		s.probe.Completed()
		t.finish(resp)
	}
}

// finish delivers the worker's response to the waiting handler (nil when the
// client is gone; the handler has already returned in that case).
func (t *task) finish(resp *Response) {
	if resp != nil {
		select {
		case t.done <- resp:
		case <-t.ctx.Done():
		}
	}
	close(t.done)
}

// eagerMethod reports whether m runs the eager encoding pipeline (the
// methods the lazy fallback is cheaper than).
func eagerMethod(m sufsat.Method) bool {
	switch m {
	case sufsat.MethodHybrid, sufsat.MethodSD, sufsat.MethodEIJ, sufsat.MethodPortfolio:
		return true
	}
	return false
}

// exec runs the degradation ladder for one admitted request under panic
// isolation: any panic — in the serving code, a fault-point hook, or escaping
// the decision pipeline — is converted into a structured 500 carrying the
// telemetry snapshot measured so far.
func (s *Server) exec(t *task, depthAtDequeue int, queueWait time.Duration) (resp *Response) {
	queueMS := float64(queueWait.Microseconds()) / 1e3
	s.flight.Record(obs.FlightStart, t.reqID, t.req.Method, queueWait.Microseconds(), int64(depthAtDequeue))
	defer func() {
		if v := recover(); v != nil {
			s.probe.Panicked()
			s.flight.Record(obs.FlightPanic, t.reqID, "", 0, 0)
			resp = s.panicResponse(t, v, queueMS)
		}
	}()

	// The decision context joins the client's context, the request deadline
	// and the server's drain-abort cancellation.
	dctx, cancel := context.WithDeadline(t.ctx, t.deadline)
	defer cancel()
	stopAbort := context.AfterFunc(s.baseCtx, cancel)
	defer stopAbort()

	if err := s.hook(StageExec); err != nil {
		return s.errorResponse(t, err, queueMS)
	}

	opts := t.opts
	degradedReason := ""
	ladderOK := !s.cfg.NoDegrade && !t.req.NoDegrade && eagerMethod(opts.Method)

	// Saturation routing: with the pool drowning, don't start an expensive
	// eager encoding at all — answer on the cheap path directly.
	if ladderOK && s.cfg.DegradeDepth > 0 && depthAtDequeue >= s.cfg.DegradeDepth {
		opts.Method = sufsat.MethodLazy
		degradedReason = "saturation"
		s.flight.Record(obs.FlightDegrade, t.reqID, degradedReason, 0, int64(depthAtDequeue))
	}

	solveStart := time.Now()
	res := sufsat.DecideContext(dctx, t.formula, opts)
	attempts := 1

	// ResourceOut retry: the lazy path needs no eager transitivity closure
	// and a far smaller CNF, so a blown clause/memory/conflict budget on the
	// eager path often still has a cheap answer within the deadline.
	if res.Status == sufsat.ResourceOut && ladderOK && degradedReason == "" &&
		time.Until(t.deadline) > minRetryBudget {
		retry := opts
		retry.Method = sufsat.MethodLazy
		res2 := sufsat.DecideContext(dctx, t.formula, retry)
		attempts = 2
		if res2.Status.Definitive() {
			res = res2
			opts.Method = retry.Method
			degradedReason = "resource-out"
			s.flight.Record(obs.FlightDegrade, t.reqID, degradedReason, 0, 0)
		}
	}
	solveMS := float64(time.Since(solveStart).Microseconds()) / 1e3

	// A panic contained by the facade is still a per-request crash: report
	// it as a structured 500 with the snapshot, like a panic caught here.
	var pe *core.PanicError
	if res.Err != nil && errors.As(res.Err, &pe) {
		s.probe.Panicked()
		s.flight.Record(obs.FlightPanic, t.reqID, "", 0, 0)
		return s.panicResponse(t, pe.Value, queueMS)
	}

	if degradedReason != "" {
		s.probe.Degraded()
		s.metrics.ObserveDegraded(degradedReason)
	}
	s.metrics.ObserveSnapshot(res.Telemetry)
	resp = &Response{
		Status:     res.Status.String(),
		Method:     methodString(opts.Method),
		Degraded:   degradedReason != "",
		Attempts:   attempts,
		Clamped:    t.clamped,
		HTTPStatus: http.StatusOK,
		QueueMS:    queueMS,
		SolveMS:    solveMS,
	}
	if degradedReason != "" {
		resp.DegradedReason = degradedReason
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	if res.Status.Definitive() {
		resp.Stats = &RespStats{
			Nodes:           res.Stats.Nodes,
			SepPreds:        res.Stats.SepPreds,
			Classes:         res.Stats.Classes,
			SDClasses:       res.Stats.SDClasses,
			DemotedClasses:  res.Stats.DemotedClasses,
			CNFClauses:      res.Stats.CNFClauses,
			ConflictClauses: res.Stats.ConflictClauses,
		}
	}
	if t.req.WantModel && res.Counterexample != nil {
		resp.ModelConsts = res.Counterexample.Consts()
		resp.ModelBools = res.Counterexample.Bools()
	}
	resp.Fingerprint = t.fp
	// Publish to the verdict cache and release single-flight followers: a
	// definitive verdict (degraded-path ones included — they are just as
	// sound) is stored; anything else frees the followers to solve alone.
	if t.flight != nil {
		if res.Status.Definitive() {
			e := &CacheEntry{
				Status: resp.Status,
				Method: resp.Method,
				Stats:  resp.Stats,
				Source: t.req.Formula,
			}
			if res.Counterexample != nil {
				e.ModelConsts = res.Counterexample.Consts()
				e.ModelBools = res.Counterexample.Bools()
			}
			t.flight.Finish(e)
		} else {
			t.flight.Abort()
		}
	}
	// The request span always ends (its End feeds the flight ring); the
	// snapshot rides in the response only on request.
	t.endRequestSpan(resp.Status)
	if t.req.WantTelemetry {
		if res.Telemetry != nil {
			resp.Telemetry = res.Telemetry
		} else {
			resp.Telemetry = t.snapshot(resp.Status, resp.Error)
		}
	}
	return resp
}

// methodString renders a facade method in request syntax.
func methodString(m sufsat.Method) string { return strings.ToLower(m.String()) }

// endRequestSpan closes the per-request span with the final status.
func (t *task) endRequestSpan(status string) {
	t.reqSpan.AttrStr("status", status)
	t.reqSpan.End()
}

// snapshot builds a minimal snapshot from the per-request recorder for paths
// where the pipeline produced none (panics, hook errors).
func (t *task) snapshot(status, errText string) *obs.Snapshot {
	snap := &obs.Snapshot{
		Method: methodString(t.opts.Method),
		Status: status,
		Error:  errText,
	}
	return snap.Finish(t.rec)
}

// panicResponse is the structured 500 for a contained per-request panic: the
// panic value plus the telemetry snapshot measured up to the crash.
func (s *Server) panicResponse(t *task, v any, queueMS float64) *Response {
	t.endRequestSpan("error")
	errText := fmt.Sprintf("panic: %v", v)
	s.log("contained request panic", "panic", v)
	return &Response{
		Status:     core.Error.String(),
		Error:      errText,
		Method:     methodString(t.opts.Method),
		Clamped:    t.clamped,
		Telemetry:  t.snapshot(core.Error.String(), errText),
		HTTPStatus: http.StatusInternalServerError,
		QueueMS:    queueMS,
	}
}

// errorResponse is the structured 500 for a server-side hook error.
func (s *Server) errorResponse(t *task, err error, queueMS float64) *Response {
	t.endRequestSpan("error")
	return &Response{
		Status:     core.Error.String(),
		Error:      err.Error(),
		Method:     methodString(t.opts.Method),
		Clamped:    t.clamped,
		HTTPStatus: http.StatusInternalServerError,
		QueueMS:    queueMS,
	}
}

// ---------- HTTP layer ----------

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", s.handleDecide)
	mux.HandleFunc("/v1/decide/batch", s.handleBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n") //nolint:errcheck
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		status := map[string]any{
			"build":    obs.GetBuildInfo(),
			"counters": s.probe.Counters(),
			"draining": s.Draining(),
			"workers":  s.cfg.Workers,
			"queue":    s.cfg.MaxQueue,
			"depth":    s.QueueLen(),
			"ema_ms":   float64(s.ema().Microseconds()) / 1e3,
			"flightrec": map[string]int64{
				"recorded":    s.flight.Recorded(),
				"overwritten": s.flight.Overwritten(),
			},
		}
		if s.cache != nil {
			status["cache"] = s.cache.Stats()
		}
		s.observer.Status(status)
		enc.Encode(status) //nolint:errcheck
	})
	if s.cfg.Metrics != nil {
		mux.Handle("/metrics", s.cfg.Metrics.Handler())
	}
	mux.Handle("/debug/flightrec", s.flight.Handler())
	s.observer.Mount(mux)
	// The outermost recover keeps a handler-level panic (fault-injected or
	// otherwise) from killing the connection without a structured response.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.probe.Panicked()
				s.log("contained handler panic", "panic", v)
				WriteResponse(w, &Response{
					Status:     core.Error.String(),
					Error:      fmt.Sprintf("panic: %v", v),
					HTTPStatus: http.StatusInternalServerError,
				})
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// handleDecide is POST /decide: decode, admission control, wait for the
// worker's response. It never blocks on a full queue.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	// Correlation ID: obs.ResolveRequestID over the header and, once the
	// body is decoded, its request_id.
	hdrID := r.Header.Get("X-Request-Id")
	// Trace context: a well-formed traceparent header enrolls this request in
	// the sender's distributed trace (span IDs minted, snapshot stamped); a
	// missing or malformed header leaves the request untraced.
	traceID, parentSpan, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	var req Request
	if resp := s.readRequest(w, r, &req); resp != nil {
		s.respond(w, resp, obs.ResolveRequestID(hdrID, ""), traceID, start)
		return
	}
	reqID := obs.ResolveRequestID(hdrID, req.RequestID)
	resp := s.decide(r.Context(), &req, reqID, traceID, parentSpan)
	if resp == nil {
		// The client is gone; there is no one to write to.
		return
	}
	if resp.Status != "shed" && resp.Status != "malformed" && !resp.Cached {
		if err := s.hook(StageRespond); err != nil {
			resp = hookError(err)
		}
	}
	s.respond(w, resp, reqID, traceID, start)
}

// readRequest is the front both POST endpoints share: the draining fast
// path (before the body is read), the decode fault point, the bounded body
// read and the JSON decode into v. A non-nil result is the rejection to
// answer with.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) *Response {
	if s.Draining() {
		return s.shed(ShedDraining, time.Second)
	}
	if err := s.hook(StageDecode); err != nil {
		return hookError(err)
	}
	body, err := readBody(w, r, s.cfg.MaxRequestBytes)
	if err != nil {
		s.probe.Malformed()
		return malformed(fmt.Sprintf("read body: %v", err))
	}
	if err := json.Unmarshal(body, v); err != nil {
		s.probe.Malformed()
		return malformed(fmt.Sprintf("bad JSON: %v", err))
	}
	return nil
}

// respond is the single exit of a /decide-shaped reply: it stamps the
// correlation ID, writes the response, and emits the request's metrics,
// flight event, slowlog offer and log record.
func (s *Server) respond(w http.ResponseWriter, resp *Response, reqID, traceID string, start time.Time) {
	resp.RequestID = reqID
	WriteResponse(w, resp)
	s.finishRequest(resp, reqID, traceID, time.Since(start))
}

// cachedResponse builds the response for a verdict served from the cache.
// The model rides along only for the identical formula source — a cached
// model's symbol names do not transfer to an alpha-variant.
func cachedResponse(req *Request, fp string, e *CacheEntry) *Response {
	resp := &Response{
		Status:      e.Status,
		Method:      e.Method,
		Cached:      true,
		Fingerprint: fp,
		Stats:       e.Stats,
		HTTPStatus:  http.StatusOK,
	}
	if req.WantModel && e.Source == req.Formula {
		resp.ModelConsts = e.ModelConsts
		resp.ModelBools = e.ModelBools
	}
	return resp
}

// usableEntry reports whether a cached entry can answer this request: always
// for verdict-only requests; a want_model request for an invalid formula
// additionally needs the stored model and the identical source text.
func usableEntry(req *Request, e *CacheEntry) bool {
	if e == nil {
		return false
	}
	if req.WantModel && e.Status == core.Invalid.String() {
		return e.ModelConsts != nil && e.Source == req.Formula
	}
	return true
}

// cacheSnapshot builds the telemetry snapshot of a cache-served request: a
// "request" root span with a "cache" child, so a cached verdict still yields
// a complete (if short) timeline — and the trace-context span links the
// fleet-trace merge needs — instead of no snapshot at all.
func cacheSnapshot(reqID, traceID, parentSpan string, e *CacheEntry, join bool) *obs.Snapshot {
	rec := obs.NewRecorder()
	rec.SetRequestID(reqID)
	if traceID != "" {
		rec.SetTraceContext(traceID, parentSpan)
	}
	root := rec.StartSpan("request")
	root.AttrStr("status", e.Status)
	root.AttrBool("cached", true)
	sp := rec.StartSpan("cache")
	sp.AttrBool("hit", true)
	if join {
		sp.AttrBool("join", true)
	}
	sp.End()
	root.End()
	snap := &obs.Snapshot{Method: e.Method, Status: e.Status}
	return snap.Finish(rec)
}

// decide runs one decoded request end to end: validate and parse, verdict
// cache (lookup, then single-flight), admission control, worker solve. It is
// the shared engine of POST /decide and POST /v1/decide/batch. A nil return
// means the client's context died with no one left to answer. traceID and
// parentSpan are the distributed-trace context ("" = untraced).
func (s *Server) decide(ctx context.Context, req *Request, reqID, traceID, parentSpan string) *Response {
	if req.Formula == "" {
		s.probe.Malformed()
		return malformed("missing formula")
	}
	method, err := ParseMethod(req.Method)
	if err != nil {
		s.probe.Malformed()
		return malformed(err.Error())
	}
	// Parsing runs before admission: malformed bytes must never cost a queue
	// slot (and must never kill the server — the parsers return errors,
	// enforced by the FuzzParse corpora). With the cache on, bytes the key
	// memo holds are not parsed here: they parsed before, and their DAG is
	// built below only if the cache cannot answer.
	useCache := s.cache != nil && !req.NoCache
	var mk memoKey
	var fp string
	if useCache {
		mk = keyOf(req.Formula, req.SMT2)
		fp, _ = s.keys.get(mk)
	}
	var f sufsat.Formula
	parsed := fp == ""
	if parsed {
		if f, err = DecidedFormula(req.Formula, req.SMT2); err != nil {
			s.probe.Malformed()
			return malformed(fmt.Sprintf("parse: %v", err))
		}
	}

	opts := req.options(method)
	if opts.Timeout <= 0 {
		opts.Timeout = s.cfg.DefaultTimeout
	}
	clamped := opts.ApplyLimits(s.cfg.Limits)
	now := time.Now()
	deadline := now.Add(opts.Timeout)
	opts.Timeout = 0 // the worker applies the deadline via context

	// Verdict cache. The fingerprint keys the decided formula (negation
	// included for SMT2 requests, so a sat-check can never collide with a
	// validity check over the same text); the key memo remembers it for
	// these exact bytes. A cache-served want_telemetry request gets a
	// synthesized snapshot (a request span with a cache child) — the verdict
	// had no solve, but the fleet trace still needs the hop accounted for.
	var fl *Flight
	if useCache {
		if fp == "" {
			fp = f.Fingerprint()
			s.keys.put(mk, fp)
		}
		lookupStart := time.Now()
		if e, ok := s.cache.Get(fp, req.Formula, req.WantModel); ok {
			resp := cachedResponse(req, fp, e)
			resp.Clamped = clamped
			resp.TotalMS = float64(time.Since(now).Microseconds()) / 1e3
			if req.WantTelemetry {
				resp.Telemetry = cacheSnapshot(reqID, traceID, parentSpan, e, false)
			}
			s.metrics.ObserveCacheHit(time.Since(lookupStart).Seconds())
			s.flight.Record(obs.FlightCacheHit, reqID, req.Method, time.Since(lookupStart).Microseconds(), 0)
			return resp
		}
		s.flight.Record(obs.FlightCacheMiss, reqID, req.Method, time.Since(lookupStart).Microseconds(), 0)
		fl = s.cache.Begin(fp)
		if !fl.Leader() {
			// An identical formula is being solved right now: wait for its
			// verdict instead of burning a second worker on the same search.
			s.flight.Record(obs.FlightCacheParked, reqID, req.Method, 0, 0)
			wctx, cancel := context.WithDeadline(ctx, deadline)
			e, werr := fl.Wait(wctx)
			cancel()
			if werr == nil && usableEntry(req, e) {
				s.flight.Record(obs.FlightCacheWoken, reqID, req.Method, time.Since(lookupStart).Microseconds(), 1)
				resp := cachedResponse(req, fp, e)
				resp.Clamped = clamped
				resp.TotalMS = float64(time.Since(now).Microseconds()) / 1e3
				if req.WantTelemetry {
					resp.Telemetry = cacheSnapshot(reqID, traceID, parentSpan, e, true)
				}
				s.metrics.ObserveCacheHit(time.Since(lookupStart).Seconds())
				s.flight.Record(obs.FlightCacheHit, reqID, req.Method, time.Since(lookupStart).Microseconds(), 1)
				return resp
			}
			if ctx.Err() != nil {
				return nil
			}
			// Leader produced nothing usable (non-definitive, or a model we
			// need that it lacks): fall through and solve ourselves, without
			// a flight of our own.
			s.flight.Record(obs.FlightCacheWoken, reqID, req.Method, time.Since(lookupStart).Microseconds(), 0)
			fl = nil
		} else {
			// Leader: whatever happens below, the followers must be released.
			defer fl.Abort()
		}
	}

	if !parsed {
		// A memo hit the cache could not answer: the worker needs the DAG.
		if f, err = DecidedFormula(req.Formula, req.SMT2); err != nil {
			s.probe.Malformed()
			return malformed(fmt.Sprintf("parse: %v", err))
		}
	}

	rec := obs.NewRecorder()
	rec.SetRequestID(reqID)
	rec.SetFlight(s.flight)
	if traceID != "" {
		rec.SetTraceContext(traceID, parentSpan)
	}
	opts.Telemetry = rec
	opts.Hook = s.cfg.Hook
	t := &task{
		ctx:      ctx,
		req:      req,
		reqID:    reqID,
		opts:     opts,
		formula:  f,
		clamped:  clamped,
		rec:      rec,
		reqSpan:  rec.StartSpan("request"),
		enqueued: now,
		deadline: deadline,
		done:     make(chan *Response, 1),
		fp:       fp,
		flight:   fl,
	}

	if err := s.hook(StageAdmit); err != nil {
		return hookError(err)
	}
	if resp := s.admit(t); resp != nil {
		return resp
	}
	s.flight.Record(obs.FlightAdmit, reqID, req.Method, 0, int64(s.QueueLen()))

	select {
	case resp, ok := <-t.done:
		if !ok || resp == nil {
			// The worker observed a dead client context; nothing to write.
			return nil
		}
		resp.TotalMS = float64(time.Since(now).Microseconds()) / 1e3
		return resp
	case <-ctx.Done():
		// Client gone; the worker will observe the same context and skip.
		return nil
	}
}

// finishRequest emits the post-write observability of one request: the
// flight-ring terminal event, the aggregated metrics observation, the
// slow-request exemplar offer, and the structured request log record — one
// correlation ID joins them all.
func (s *Server) finishRequest(resp *Response, reqID, traceID string, total time.Duration) {
	httpStatus := resp.HTTPStatus
	if httpStatus == 0 {
		httpStatus = http.StatusOK
	}
	switch resp.Status {
	case "shed":
		s.flight.Record(obs.FlightShed, reqID, resp.ShedReason, total.Microseconds(), 0)
	case "malformed":
		s.flight.Record(obs.FlightMalformed, reqID, "", total.Microseconds(), 0)
	default:
		s.flight.Record(obs.FlightDone, reqID, resp.Status, total.Microseconds(), int64(httpStatus))
		s.metrics.ObserveRequest(resp.Status, resp.Method,
			resp.QueueMS/1e3, resp.SolveMS/1e3, total.Seconds())
		s.observer.Finish(float64(total.Microseconds())/1e3, func() obs.SlowEntry {
			e := obs.SlowEntry{
				RequestID:   reqID,
				TraceID:     traceID,
				Status:      resp.Status,
				Method:      resp.Method,
				Fingerprint: resp.Fingerprint,
				Cached:      resp.Cached,
			}
			if resp.Telemetry != nil {
				e.Spans = resp.Telemetry.Spans
				if e.TraceID == "" {
					e.TraceID = resp.Telemetry.TraceID
				}
			}
			return e
		})
	}
	if s.cfg.Logger == nil {
		return
	}
	attrs := []any{
		"req_id", reqID,
		"status", resp.Status,
		"http", httpStatus,
		"total_ms", float64(total.Microseconds()) / 1e3,
	}
	if resp.Method != "" {
		attrs = append(attrs, "method", resp.Method)
	}
	if resp.Status != "shed" && resp.Status != "malformed" {
		attrs = append(attrs, "queue_ms", resp.QueueMS, "solve_ms", resp.SolveMS)
	}
	if resp.ShedReason != "" {
		attrs = append(attrs, "shed_reason", resp.ShedReason)
	}
	if resp.Degraded {
		attrs = append(attrs, "degraded", resp.DegradedReason)
	}
	if resp.Attempts > 1 {
		attrs = append(attrs, "attempts", resp.Attempts)
	}
	if resp.Error != "" {
		attrs = append(attrs, "error", resp.Error)
	}
	s.cfg.Logger.Info("request", attrs...)
}

// readBody reads a request body of at most limit bytes. A body whose
// Content-Length is known and within the limit is read into one buffer of
// that size; any other is read by io.ReadAll, which grows its buffer as the
// bytes arrive. Either way a body over the limit fails with the
// *http.MaxBytesError of http.MaxBytesReader and a truncated one with
// io.ErrUnexpectedEOF.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n > 0 && n <= limit {
		body := make([]byte, n)
		if _, err := io.ReadFull(rd, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(rd)
}

func malformed(msg string) *Response {
	return &Response{Status: "malformed", Error: msg, HTTPStatus: http.StatusBadRequest}
}

// hookError is the structured 500 for a server fault point's error.
func hookError(err error) *Response {
	return &Response{Status: core.Error.String(), Error: err.Error(), HTTPStatus: http.StatusInternalServerError}
}

// WriteResponse writes resp as a /decide-shaped reply, on sufserved and
// sufrouter alike: its HTTP status (200 when unset), X-Request-Id when it
// carries a correlation ID, and on a 503 Retry-After, RetryAfterMS rounded
// up to whole seconds.
func WriteResponse(w http.ResponseWriter, resp *Response) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if resp.RequestID != "" {
		h.Set("X-Request-Id", resp.RequestID)
	}
	code := resp.HTTPStatus
	if code == 0 {
		code = http.StatusOK
	}
	if code == http.StatusServiceUnavailable && resp.RetryAfterMS > 0 {
		h.Set("Retry-After", strconv.FormatInt((resp.RetryAfterMS+999)/1000, 10))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// ---------- lifecycle ----------

// Serve runs an http.Server for the handler on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ConnState: s.trackConn}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// trackConn records each open connection's state, so a drain can tell a
// connection serving a request from one that has not sent any.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	switch state {
	case http.StateClosed, http.StateHijacked:
		delete(s.conns, c)
	default:
		if s.conns == nil {
			s.conns = make(map[net.Conn]http.ConnState)
		}
		s.conns[c] = state
	}
}

// activeConns counts the open connections serving a request.
func (s *Server) activeConns() int {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	n := 0
	for _, state := range s.conns {
		if state == http.StateActive {
			n++
		}
	}
	return n
}

// ListenAndServe binds addr (port 0 picks a free port, reported via the
// returned address) and serves in a background goroutine.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(ln) //nolint:errcheck
	return ln.Addr().String(), nil
}

// Shutdown drains the server: stop admitting (readiness flips, new requests
// shed with 503), let the pool finish every already-admitted request, and —
// if ctx expires first — cancel the in-flight solves, which then complete
// with Canceled within the pipeline's bounded poll cadence. Idempotent;
// concurrent calls all wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.drain = true
		close(s.queue)
		s.mu.Unlock()
		s.log("draining", "queued", len(s.queue))
		s.observer.Stop()
	})

	var err error
	select {
	case <-s.workersDone:
	case <-ctx.Done():
		// Deadline: abort in-flight work and wait for the workers to notice.
		s.log("drain deadline hit, cancelling in-flight requests")
		s.baseCancel()
		<-s.workersDone
		err = ctx.Err()
	}
	s.baseCancel()

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.httpMu.Unlock()
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if serr := srv.Shutdown(sctx); serr != nil {
			// The grace ran out. net/http counts a connection that has not
			// sent a request yet as active for its first 5 s, so close
			// whatever is left, and fail the drain only if a request was
			// still being served.
			active := s.activeConns()
			srv.Close() //nolint:errcheck // the listeners are already closed
			if active > 0 && err == nil {
				err = fmt.Errorf("server: drain closed %d connection(s) serving a request: %w", active, serr)
			}
		}
	}
	s.log("drained")
	return err
}
