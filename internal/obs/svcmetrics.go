package obs

import (
	"strconv"
	"sync"
)

// ServiceMetrics is the aggregated-metrics bundle of the decision service:
// every counter, gauge and histogram the /metrics endpoint exposes, wired to
// one Registry. The server calls the Observe* methods on its hot path (all
// lock-free after a one-time child lookup) and hands the registry's Handler
// to its mux; the admission-control counters are read at scrape time straight
// from the ServiceProbe the server already maintains, so the two surfaces
// can never disagree. A nil *ServiceMetrics no-ops every method.
type ServiceMetrics struct {
	reg *Registry

	reqDuration  *Histogram
	queueWait    *Histogram
	solveSeconds *Histogram
	cnfClauses   *Histogram
	satConflicts *Histogram

	solverDecisions    *Counter
	solverPropagations *Counter
	solverConflicts    *Counter
	solverRestarts     *Counter
	workerSamples      *Counter

	encSD      *Counter
	encEIJ     *Counter
	encDemoted *Counter

	cacheHitSeconds *Histogram

	requests *labelCap[*Counter]      // by status
	methods  *labelCap[*Counter]      // by method
	degraded *labelCap[*Counter]      // by reason
	phases   *labelCap[*FloatCounter] // by span name
	workers  *labelCap[*Counter]      // conflicts by worker id
}

// maxLabelChildren bounds each dynamically-labeled family; values past the
// cap collapse into an "other" child so a misbehaving client cannot grow the
// scrape without bound.
const maxLabelChildren = 32

// maxWorkerChildren bounds the per-worker conflict counters (worker ids past
// the cap collapse into worker="other").
const maxWorkerChildren = 16

// labelCap is one family's dynamically-labeled children, each created on
// first use by add. Past limit distinct values, further values share one
// "other" child. Safe for concurrent use.
type labelCap[T any] struct {
	limit int
	add   func(value string) T

	mu   sync.Mutex
	kids map[string]T
}

func newLabelCap[T any](limit int, add func(value string) T) *labelCap[T] {
	return &labelCap[T]{limit: limit, add: add, kids: make(map[string]T)}
}

// counterCap caps the children of counter family name, keyed by label.
func counterCap(reg *Registry, name, help, label string) *labelCap[*Counter] {
	return newLabelCap(maxLabelChildren, func(v string) *Counter { return reg.Counter(name, help, label, v) })
}

// child returns the child for value, creating it on first use.
func (c *labelCap[T]) child(value string) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k, ok := c.kids[value]; ok {
		return k
	}
	if len(c.kids) >= c.limit {
		value = "other"
		if k, ok := c.kids[value]; ok {
			return k
		}
	}
	k := c.add(value)
	c.kids[value] = k
	return k
}

// Histogram bucket layouts. Latencies are log-bucketed from 100µs to ~1.6min;
// clause and conflict counts from 16 to ~4M — one knob spans the decades the
// paper's benchmark suite covers at bounded cardinality.
var (
	latencyBuckets = ExpBuckets(1e-4, 2, 20)
	sizeBuckets    = ExpBuckets(16, 4, 10)
)

// NewServiceMetrics registers the service's metric families on reg, reading
// the admission-control counters from probe and the flight ring's occupancy
// from flight at scrape time. Returns nil on a nil registry (the
// metrics-disabled server).
func NewServiceMetrics(reg *Registry, probe *ServiceProbe, flight *FlightRecorder) *ServiceMetrics {
	if reg == nil {
		return nil
	}
	m := &ServiceMetrics{
		reg: reg,
		requests: counterCap(reg, "sufsat_requests_total",
			"Completed decision responses by status.", "status"),
		methods: counterCap(reg, "sufsat_methods_total",
			"Completed decision responses by requested method.", "method"),
		degraded: counterCap(reg, "sufsat_degraded_total",
			"Requests answered by the degradation ladder, by trigger.", "reason"),
		phases: newLabelCap(maxLabelChildren, func(phase string) *FloatCounter {
			return reg.FloatCounter("sufsat_phase_seconds_total",
				"Wall-clock seconds by pipeline phase, from span durations.", "phase", phase)
		}),
		workers: newLabelCap(maxWorkerChildren, func(id string) *Counter {
			return reg.Counter("sufsat_worker_conflicts_total",
				"SAT conflicts by parallel worker id.", "worker", id)
		}),
	}
	RegisterBuildInfo(reg)

	m.reqDuration = reg.Histogram("sufsat_request_duration_seconds",
		"End-to-end request latency (admission to response).", latencyBuckets)
	m.queueWait = reg.Histogram("sufsat_queue_wait_seconds",
		"Time spent in the admission queue before a worker picked the request up.", latencyBuckets)
	m.solveSeconds = reg.Histogram("sufsat_solve_seconds",
		"Decision time (worker pickup to verdict).", latencyBuckets)
	m.cnfClauses = reg.Histogram("sufsat_cnf_clauses",
		"CNF clauses per decided request.", sizeBuckets)
	m.satConflicts = reg.Histogram("sufsat_sat_conflicts",
		"SAT conflicts per decided request.", sizeBuckets)

	m.solverDecisions = reg.Counter("sufsat_solver_decisions_total",
		"SAT decisions across all requests.")
	m.solverPropagations = reg.Counter("sufsat_solver_propagations_total",
		"SAT propagations across all requests.")
	m.solverConflicts = reg.Counter("sufsat_solver_conflicts_total",
		"SAT conflicts across all requests.")
	m.solverRestarts = reg.Counter("sufsat_solver_restarts_total",
		"SAT restarts across all requests.")
	m.workerSamples = reg.Counter("sufsat_worker_probe_samples_total",
		"Worker progress samples collected by per-request collectors.")

	m.encSD = reg.Counter("sufsat_encoding_classes_total",
		"Symbolic-constant classes by the encoder that handled them.", "encoder", "sd")
	m.encEIJ = reg.Counter("sufsat_encoding_classes_total",
		"Symbolic-constant classes by the encoder that handled them.", "encoder", "eij")
	m.encDemoted = reg.Counter("sufsat_encoding_classes_total",
		"Symbolic-constant classes by the encoder that handled them.", "encoder", "demoted")

	reg.CounterFunc("sufsat_flightrec_events_total",
		"Events recorded into the flight ring.",
		func() float64 { return float64(flight.Recorded()) })
	reg.CounterFunc("sufsat_flightrec_overwritten_total",
		"Flight-ring events displaced by wraparound.",
		func() float64 { return float64(flight.Overwritten()) })

	// Admission control: scrape-time reads of the probe the server already
	// updates, so /metrics and /statusz can never disagree.
	counters := func() ServiceCounters { return probe.Counters() }
	reg.GaugeFunc("sufsat_queue_depth",
		"Requests waiting in the admission queue.",
		func() float64 { return float64(counters().QueueDepth) })
	reg.GaugeFunc("sufsat_in_flight",
		"Requests currently executing.",
		func() float64 { return float64(counters().InFlight) })
	reg.CounterFunc("sufsat_admitted_total",
		"Requests accepted into the admission queue.",
		func() float64 { return float64(counters().Admitted) })
	reg.CounterFunc("sufsat_completed_total",
		"Requests that produced a decision response.",
		func() float64 { return float64(counters().Completed) })
	reg.CounterFunc("sufsat_shed_total",
		"Load-shedding rejections by cause.",
		func() float64 { return float64(counters().ShedQueueFull) }, "reason", "queue_full")
	reg.CounterFunc("sufsat_shed_total",
		"Load-shedding rejections by cause.",
		func() float64 { return float64(counters().ShedDeadline) }, "reason", "deadline")
	reg.CounterFunc("sufsat_shed_total",
		"Load-shedding rejections by cause.",
		func() float64 { return float64(counters().ShedDraining) }, "reason", "draining")
	reg.CounterFunc("sufsat_panics_total",
		"Contained per-request panics.",
		func() float64 { return float64(counters().Panics) })
	reg.CounterFunc("sufsat_malformed_total",
		"Requests rejected before admission (bad JSON, formula, method, size).",
		func() float64 { return float64(counters().Malformed) })
	return m
}

// Registry returns the registry the bundle writes to (nil for nil).
func (m *ServiceMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// ObserveRequest records one completed decision: its status, requested
// method, and the queue/solve/total latency split in seconds.
func (m *ServiceMetrics) ObserveRequest(status, method string, queueSec, solveSec, totalSec float64) {
	if m == nil {
		return
	}
	m.requests.child(status).Inc()
	m.methods.child(method).Inc()
	m.queueWait.Observe(queueSec)
	m.solveSeconds.Observe(solveSec)
	m.reqDuration.Observe(totalSec)
}

// CacheCounters is a scrape-time snapshot of the verdict cache, provided by
// the getter passed to RegisterCache. Counter fields must be monotone.
type CacheCounters struct {
	Hits, Misses, Evictions, SingleflightJoins int64
	Entries, Bytes                             int64
}

// RegisterCache wires the sufsat_cache_* metric families to a verdict cache
// via a scrape-time getter, and enables the cache-hit latency histogram the
// server feeds through ObserveCacheHit. No-op on a nil bundle or getter.
func (m *ServiceMetrics) RegisterCache(stats func() CacheCounters) {
	if m == nil || stats == nil {
		return
	}
	m.cacheHitSeconds = m.reg.Histogram("sufsat_cache_hit_seconds",
		"Latency of requests answered from the verdict cache (lookup to response build).",
		ExpBuckets(1e-6, 4, 12))
	m.reg.CounterFunc("sufsat_cache_hits_total",
		"Requests answered from the verdict cache.",
		func() float64 { return float64(stats().Hits) })
	m.reg.CounterFunc("sufsat_cache_misses_total",
		"Cache lookups that missed (solved from scratch).",
		func() float64 { return float64(stats().Misses) })
	m.reg.CounterFunc("sufsat_cache_evictions_total",
		"Entries evicted by the LRU bounds.",
		func() float64 { return float64(stats().Evictions) })
	m.reg.CounterFunc("sufsat_cache_singleflight_joins_total",
		"Requests that joined a concurrent identical request instead of re-solving.",
		func() float64 { return float64(stats().SingleflightJoins) })
	m.reg.GaugeFunc("sufsat_cache_entries",
		"Verdicts currently cached.",
		func() float64 { return float64(stats().Entries) })
	m.reg.GaugeFunc("sufsat_cache_bytes",
		"Estimated resident bytes of cached verdicts.",
		func() float64 { return float64(stats().Bytes) })
}

// ObserveCacheHit records one cache-served response's latency in seconds.
func (m *ServiceMetrics) ObserveCacheHit(sec float64) {
	if m == nil || m.cacheHitSeconds == nil {
		return
	}
	m.cacheHitSeconds.Observe(sec)
}

// ObserveDegraded records one request answered by the degradation ladder,
// split by trigger ("saturation", "resource-out").
func (m *ServiceMetrics) ObserveDegraded(reason string) {
	if m == nil {
		return
	}
	m.degraded.child(reason).Inc()
}

// attrFloat coerces a span attribute to float64 (attributes arrive as int,
// int64 or float64 from the typed Attr* setters).
func attrFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// ObserveSnapshot folds one request's telemetry snapshot into the aggregated
// families: per-phase span seconds (with the encode span's sd_ms/eij_ms
// attributes split out as encode_sd/encode_eij), hybrid encoding class
// routing, clause/conflict size histograms, cumulative solver counters, and
// per-worker conflict totals.
func (m *ServiceMetrics) ObserveSnapshot(snap *Snapshot) {
	if m == nil || snap == nil {
		return
	}
	for i := range snap.Spans {
		sp := &snap.Spans[i]
		m.phases.child(sp.Name).Add(sp.DurMS / 1e3)
		if sp.Name == "encode" && sp.Attrs != nil {
			if ms, ok := attrFloat(sp.Attrs["sd_ms"]); ok && ms > 0 {
				m.phases.child("encode_sd").Add(ms / 1e3)
			}
			if ms, ok := attrFloat(sp.Attrs["eij_ms"]); ok && ms > 0 {
				m.phases.child("encode_eij").Add(ms / 1e3)
			}
		}
	}
	p := snap.Pipeline
	// DemotedClasses is a subset of SDClasses (demoted EIJ→SD); count the
	// voluntary SD routing and the demotions separately so the two encoder
	// shares sum to Classes.
	if n := p.SDClasses - p.DemotedClasses; n > 0 {
		m.encSD.Add(int64(n))
	}
	if p.EIJClasses > 0 {
		m.encEIJ.Add(int64(p.EIJClasses))
	}
	if p.DemotedClasses > 0 {
		m.encDemoted.Add(int64(p.DemotedClasses))
	}
	if p.CNFClauses > 0 {
		m.cnfClauses.Observe(float64(p.CNFClauses))
	}
	if snap.SAT != (SolverStats{}) {
		m.satConflicts.Observe(float64(snap.SAT.Conflicts))
		m.solverDecisions.Add(snap.SAT.Decisions)
		m.solverPropagations.Add(snap.SAT.Propagations)
		m.solverConflicts.Add(snap.SAT.Conflicts)
		m.solverRestarts.Add(snap.SAT.Restarts)
	}
	m.workerSamples.Add(int64(len(snap.Samples)))
	if ps := snap.Parallel; ps != nil {
		for _, w := range ps.PerWorker {
			if w.Conflicts > 0 {
				m.workers.child(strconv.Itoa(w.ID)).Add(w.Conflicts)
			}
		}
	} else if snap.SAT.Conflicts > 0 {
		m.workers.child("0").Add(snap.SAT.Conflicts)
	}
}
