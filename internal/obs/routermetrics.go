package obs

import "sync"

// RouterMetrics is the aggregated-metrics bundle of the fleet router
// (internal/router): the sufrouter_* families its /metrics endpoint exposes.
// It follows the same discipline as ServiceMetrics — handles are registered
// once, hot-path updates are lock-free after a one-time child lookup, label
// cardinality is capped, and a nil *RouterMetrics no-ops every method, so a
// metrics-disabled router pays only untaken branches.
//
// Families (documented in docs/FORMATS.md):
//
//	sufrouter_requests_total{status}          routed responses by final status
//	sufrouter_request_duration_seconds        end-to-end router latency
//	sufrouter_backend_state{backend}          breaker state (0 closed, 1 half-open, 2 open)
//	sufrouter_backend_requests_total{backend} attempts sent to each backend
//	sufrouter_backend_failures_total{backend} attempts that failed below HTTP
//	sufrouter_failovers_total                 reroutes to the next ring node
//	sufrouter_failover_denied_total           failovers blocked by the retry budget
//	sufrouter_hedges_total                    hedge requests fired
//	sufrouter_hedge_wins_total                hedges that answered first
//	sufrouter_hedge_denied_total              hedges blocked by the hedge budget
//	sufrouter_sheds_total{reason}             router-level 503s by cause
//	sufrouter_probe_failures_total{backend}   failed active health probes
//	sufrouter_in_flight                       requests currently inside the router
//	sufrouter_backend_membership{backend}     membership state (0 joining, 1 active, 2 draining, -1 removed)
//	sufrouter_membership_epoch                monotonic membership epoch (1 at start, +1 per change)
//	sufrouter_membership_changes_total{verb}  membership operations by verb (join, drain, remove)
//	sufrouter_membership_keys_moved_total     sampled keys whose home node moved across changes
//	sufrouter_membership_last_move_ratio      sampled moved-key fraction of the latest change
type RouterMetrics struct {
	reg *Registry

	reqDuration *Histogram

	failovers      *Counter
	failoverDenied *Counter
	hedges         *Counter
	hedgeWins      *Counter
	hedgeDenied    *Counter

	memberJoins   *Counter
	memberDrains  *Counter
	memberRemoves *Counter
	keysMoved     *Counter

	mu         sync.Mutex
	registered map[string]bool // backends with per-backend gauges, under mu

	requests      *labelCap[*Counter] // by status
	sheds         *labelCap[*Counter] // by reason
	backendReqs   *labelCap[*Counter] // by backend
	backendFails  *labelCap[*Counter] // by backend
	probeFailures *labelCap[*Counter] // by backend
}

// NewRouterMetrics registers the router's metric families on reg. inFlight
// is read at scrape time (the router already maintains the count). Returns
// nil on a nil registry.
func NewRouterMetrics(reg *Registry, inFlight func() float64) *RouterMetrics {
	if reg == nil {
		return nil
	}
	m := &RouterMetrics{
		reg:        reg,
		registered: make(map[string]bool),
		requests: counterCap(reg, "sufrouter_requests_total",
			"Routed responses by final status.", "status"),
		sheds: counterCap(reg, "sufrouter_sheds_total",
			"Router-level load-shedding rejections by cause.", "reason"),
		backendReqs: counterCap(reg, "sufrouter_backend_requests_total",
			"Attempts sent to each backend (hedges and failovers included).", "backend"),
		backendFails: counterCap(reg, "sufrouter_backend_failures_total",
			"Attempts that failed below HTTP, by backend.", "backend"),
		probeFailures: counterCap(reg, "sufrouter_probe_failures_total",
			"Failed active /readyz probes, by backend.", "backend"),
	}
	RegisterBuildInfo(reg)
	m.reqDuration = reg.Histogram("sufrouter_request_duration_seconds",
		"End-to-end router latency (receipt to response), hedges and failovers included.",
		latencyBuckets)
	m.failovers = reg.Counter("sufrouter_failovers_total",
		"Requests rerouted to the next ring node after a backend failure or open breaker.")
	m.failoverDenied = reg.Counter("sufrouter_failover_denied_total",
		"Failovers blocked by the retry budget (degraded to a shed instead of cascading).")
	m.hedges = reg.Counter("sufrouter_hedges_total",
		"Hedge requests fired after the p95-derived delay.")
	m.hedgeWins = reg.Counter("sufrouter_hedge_wins_total",
		"Hedge requests that answered before the primary.")
	m.hedgeDenied = reg.Counter("sufrouter_hedge_denied_total",
		"Hedges blocked by the hedge budget (self-load-shedding under saturation).")
	m.memberJoins = reg.Counter("sufrouter_membership_changes_total",
		"Membership operations by verb (reactivations count as joins).", "verb", "join")
	m.memberDrains = reg.Counter("sufrouter_membership_changes_total",
		"Membership operations by verb (reactivations count as joins).", "verb", "drain")
	m.memberRemoves = reg.Counter("sufrouter_membership_changes_total",
		"Membership operations by verb (reactivations count as joins).", "verb", "remove")
	m.keysMoved = reg.Counter("sufrouter_membership_keys_moved_total",
		"Sampled probe keys whose home backend moved, summed over membership changes.")
	if inFlight != nil {
		reg.GaugeFunc("sufrouter_in_flight",
			"Requests currently inside the router.", inFlight)
	}
	return m
}

// Registry returns the registry the bundle writes to (nil for nil).
func (m *RouterMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// RegisterBackend registers the per-backend gauges, read at scrape time:
// stateFn is the breaker state (0 closed, 1 half-open, 2 open; -1 once the
// backend is removed), memberFn the membership state (0 joining, 1 active,
// 2 draining, -1 removed). The registry cannot unregister, so the closures
// must resolve the backend by name at scrape time, and re-registering a
// name (a removed backend re-added) is a deduped no-op — the existing
// gauges keep reading through the same closures.
func (m *RouterMetrics) RegisterBackend(name string, stateFn, memberFn func() float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	// The registry is append-only (no unregistration), so cap how many
	// distinct backend names ever get gauges — the same cardinality bound as
	// the labeled counters, here enforced by skipping instead of "other".
	if m.registered[name] || len(m.registered) >= maxLabelChildren {
		m.mu.Unlock()
		return
	}
	m.registered[name] = true
	m.mu.Unlock()
	m.reg.GaugeFunc("sufrouter_backend_state",
		"Circuit-breaker state per backend: 0 closed, 1 half-open, 2 open, -1 removed.",
		stateFn, "backend", name)
	if memberFn != nil {
		m.reg.GaugeFunc("sufrouter_backend_membership",
			"Membership state per backend: 0 joining, 1 active, 2 draining, -1 removed.",
			memberFn, "backend", name)
	}
}

// RegisterMembership registers the fleet-wide membership gauges, read at
// scrape time: the monotonic epoch and the latest change's sampled
// moved-key ratio.
func (m *RouterMetrics) RegisterMembership(epochFn, lastMoveFn func() float64) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("sufrouter_membership_epoch",
		"Monotonic membership epoch: 1 at construction, +1 per effective change.", epochFn)
	m.reg.GaugeFunc("sufrouter_membership_last_move_ratio",
		"Sampled fraction of the keyspace whose home backend moved in the latest membership change.", lastMoveFn)
}

// ObserveMembership records one effective membership change: verb counts
// (reactivations count as joins) and the sampled moved-key count.
func (m *RouterMetrics) ObserveMembership(joins, drains, removes, keysMoved int) {
	if m == nil {
		return
	}
	m.memberJoins.Add(int64(joins))
	m.memberDrains.Add(int64(drains))
	m.memberRemoves.Add(int64(removes))
	m.keysMoved.Add(int64(keysMoved))
}

// ObserveRequest records one routed response: its final status and the
// router-side end-to-end latency in seconds.
func (m *RouterMetrics) ObserveRequest(status string, seconds float64) {
	if m == nil {
		return
	}
	m.requests.child(status).Inc()
	m.reqDuration.Observe(seconds)
}

// ObserveAttempt records one attempt sent to a backend, and whether it
// failed below HTTP (transport error, truncated or undecodable body).
func (m *RouterMetrics) ObserveAttempt(backend string, failed bool) {
	if m == nil {
		return
	}
	m.backendReqs.child(backend).Inc()
	if failed {
		m.backendFails.child(backend).Inc()
	}
}

// ObserveShed records one router-level 503 by cause.
func (m *RouterMetrics) ObserveShed(reason string) {
	if m == nil {
		return
	}
	m.sheds.child(reason).Inc()
}

// ObserveProbeFailure records one failed active health probe.
func (m *RouterMetrics) ObserveProbeFailure(backend string) {
	if m == nil {
		return
	}
	m.probeFailures.child(backend).Inc()
}

// Failover / FailoverDenied / Hedge / HedgeWin / HedgeDenied bump the
// matching counters (nil-safe via the Counter methods).
func (m *RouterMetrics) Failover() {
	if m != nil {
		m.failovers.Inc()
	}
}

func (m *RouterMetrics) FailoverDenied() {
	if m != nil {
		m.failoverDenied.Inc()
	}
}

func (m *RouterMetrics) Hedge() {
	if m != nil {
		m.hedges.Inc()
	}
}

func (m *RouterMetrics) HedgeWin() {
	if m != nil {
		m.hedgeWins.Inc()
	}
}

func (m *RouterMetrics) HedgeDenied() {
	if m != nil {
		m.hedgeDenied.Inc()
	}
}
