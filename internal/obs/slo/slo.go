// Package slo evaluates declarative service-level objectives as multi-window
// burn rates over the in-process metrics history (internal/obs/history).
//
// An objective declares what "bad" means — an error ratio, a latency
// threshold exceeded, a minimum good-ratio missed, or any increase at all —
// and a budget: the bad fraction the service is allowed. The engine computes
// the burn rate (observed bad fraction divided by budget) over a fast and a
// slow window after every history snapshot; an objective is burning when
// BOTH windows burn at or above the threshold (the fast window reacts, the
// slow window filters blips — the standard multi-window multi-burn-rate
// alerting shape), and recovers when the fast window drops back below it.
//
// State transitions are pushed three ways: flight-recorder events (slo-burn
// / slo-clear), the <prefix>_slo_* metric families, and an optional OnBurn
// callback — the hook the trigger-fired profiler hangs off.
package slo

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/history"
)

// Kind selects how an objective turns history windows into a bad fraction.
type Kind string

const (
	// ErrorRatio: bad counter deltas over total counter deltas.
	ErrorRatio Kind = "error-ratio"
	// Latency: fraction of histogram observations above ThresholdSeconds.
	Latency Kind = "latency"
	// Zero: any increase of the bad counters is a full-budget burn —
	// for invariants like mismatch==0 or panic==0.
	Zero Kind = "zero"
)

// Selector names one counter family, optionally narrowed to children whose
// labels carry Label="Value".
type Selector struct {
	Family string
	Label  string
	Value  string
}

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in metrics, statusz and flight events.
	// Keep it ≤ 16 bytes — the flight recorder truncates names beyond that.
	Name string
	Kind Kind
	// Bad and Total drive ErrorRatio (bad/total) and Zero (Bad only).
	// Total is the whole denominator, so it must count the bad events too.
	Bad   []Selector
	Total []Selector
	// Family and ThresholdSeconds drive Latency: the fraction of the
	// histogram's windowed observations above the threshold is the bad
	// fraction.
	Family           string
	ThresholdSeconds float64
	// Budget is the allowed bad fraction (e.g. 0.01 for 99% availability,
	// 0.05 for "p95 under threshold"). Ignored by Zero.
	Budget float64
	// Description is shown in /statusz.
	Description string
}

// Config tunes the engine. Zero values pick the defaults.
type Config struct {
	// FastWindow and SlowWindow are the two burn-rate windows
	// (defaults 5m and 1h).
	FastWindow, SlowWindow time.Duration
}

const (
	// DefaultFastWindow and DefaultSlowWindow are the standard window pair.
	DefaultFastWindow = 5 * time.Minute
	DefaultSlowWindow = time.Hour
	// BurnThreshold is the burn rate at which both windows must arrive for
	// the objective to be burning: 1.0, budget consumed exactly as fast as
	// it accrues.
	BurnThreshold = 1.0
)

// State is an objective's evaluation state.
type State int32

const (
	// StateNoData: the history window does not yet span two snapshots or
	// the objective's families have not appeared.
	StateNoData State = iota
	// StateOK: evaluated, not burning.
	StateOK
	// StateBurning: both windows at or above the burn threshold.
	StateBurning
)

// String returns the statusz name of the state.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateBurning:
		return "burning"
	}
	return "no-data"
}

// Status is one objective's externally visible state (the /statusz schema).
type Status struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	State       string  `json:"state"`
	FastBurn    float64 `json:"fast_burn"`
	SlowBurn    float64 `json:"slow_burn"`
	Budget      float64 `json:"budget"`
	SinceNS     int64   `json:"since_ns,omitempty"`
	Transitions int64   `json:"transitions"`
	Description string  `json:"description,omitempty"`
}

// objState is one objective's live evaluation state. Burn rates are stored
// as atomic float bits so the scrape-time GaugeFuncs read without locking.
type objState struct {
	obj         Objective
	state       atomic.Int32
	fastBits    atomic.Uint64
	slowBits    atomic.Uint64
	sinceNS     atomic.Int64
	transitions atomic.Int64
	toBurning   *obs.Counter
	toOK        *obs.Counter
	burning     *obs.Gauge
}

// Engine evaluates a set of objectives over one history ring.
type Engine struct {
	hist   *history.History
	flight *obs.FlightRecorder
	cfg    Config
	objs   []*objState
	// OnBurn, when set, runs on every transition into burning with the
	// objective's name — the profile-capture trigger. Called from the
	// history collector goroutine; keep it non-blocking.
	onBurn func(name string)
	mu     sync.Mutex
}

// New builds an engine over hist, registering the <prefix>_slo_* families in
// reg: <prefix>_slo_burning{slo}, <prefix>_slo_burn_rate{slo,window} and
// <prefix>_slo_transitions_total{slo,state}. A nil hist or empty objective
// list yields a nil engine, whose methods no-op.
func New(reg *obs.Registry, hist *history.History, flight *obs.FlightRecorder, prefix string, objectives []Objective, cfg Config) *Engine {
	if hist == nil || len(objectives) == 0 {
		return nil
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultFastWindow
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = DefaultSlowWindow
	}
	if cfg.SlowWindow < cfg.FastWindow {
		cfg.SlowWindow = cfg.FastWindow
	}
	e := &Engine{hist: hist, flight: flight, cfg: cfg}
	for _, obj := range objectives {
		if obj.Name == "" {
			panic("slo: objective with empty name")
		}
		if obj.Kind != Zero && obj.Budget <= 0 {
			panic(fmt.Sprintf("slo: objective %q needs a positive budget", obj.Name))
		}
		st := &objState{obj: obj}
		st.burning = reg.Gauge(prefix+"_slo_burning",
			"1 while the objective's fast and slow burn rates both exceed the threshold.",
			"slo", obj.Name)
		for _, w := range []string{"fast", "slow"} {
			bits := &st.fastBits
			if w == "slow" {
				bits = &st.slowBits
			}
			reg.GaugeFunc(prefix+"_slo_burn_rate",
				"Error-budget burn rate per evaluation window (1.0 = budget consumed exactly as fast as it accrues).",
				func() float64 { return math.Float64frombits(bits.Load()) },
				"slo", obj.Name, "window", w)
		}
		st.toBurning = reg.Counter(prefix+"_slo_transitions_total",
			"SLO state transitions by objective and entered state.",
			"slo", obj.Name, "state", "burning")
		st.toOK = reg.Counter(prefix+"_slo_transitions_total",
			"SLO state transitions by objective and entered state.",
			"slo", obj.Name, "state", "ok")
		e.objs = append(e.objs, st)
	}
	return e
}

// OnBurn installs the burning-transition callback (the profiler trigger).
func (e *Engine) OnBurn(fn func(name string)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.onBurn = fn
	e.mu.Unlock()
}

// badFraction computes an objective's bad fraction over one window. ok is
// false when the history cannot answer yet.
func (e *Engine) badFraction(obj Objective, window time.Duration) (frac float64, ok bool) {
	switch obj.Kind {
	case Latency:
		bounds, cum, total, got := e.hist.WindowBuckets(obj.Family, window)
		if !got {
			return 0, false
		}
		if total <= 0 {
			return 0, true // no traffic burns no budget
		}
		// Observations above the threshold: total minus the cumulative count
		// at the smallest bound >= threshold (bucket upper bounds are
		// inclusive, so values exactly at the bound count as good).
		below := 0.0
		for i, b := range bounds {
			if b >= obj.ThresholdSeconds {
				below = cum[i]
				break
			}
		}
		return (total - below) / total, true
	case Zero:
		bad, anyBad := e.sumSelectors(obj.Bad, window)
		if !anyBad {
			return 0, false
		}
		if bad > 0 {
			return 1, true
		}
		return 0, true
	default: // ErrorRatio
		bad, anyBad := e.sumSelectors(obj.Bad, window)
		total, anyTotal := e.sumSelectors(obj.Total, window)
		if !anyBad && !anyTotal {
			return 0, false
		}
		if total <= 0 {
			return 0, true
		}
		return bad / total, true
	}
}

// sumSelectors sums counter deltas over the window; ok if any selector's
// family answered.
func (e *Engine) sumSelectors(sels []Selector, window time.Duration) (sum float64, ok bool) {
	for _, s := range sels {
		d, got := e.hist.CounterDelta(s.Family, s.Label, s.Value, window)
		if got {
			ok = true
			sum += d
		}
	}
	return sum, ok
}

// Evaluate recomputes every objective against the current history — called
// after each snapshot via the history OnSnapshot hook, and directly by tests.
func (e *Engine) Evaluate() {
	if e == nil {
		return
	}
	for _, st := range e.objs {
		obj := st.obj
		budget := obj.Budget
		if obj.Kind == Zero {
			budget = 1 // a Zero objective's bad fraction is already 0 or 1
		}
		fastFrac, fastOK := e.badFraction(obj, e.cfg.FastWindow)
		slowFrac, slowOK := e.badFraction(obj, e.cfg.SlowWindow)
		if !fastOK || !slowOK {
			continue // keep the previous state until the history can answer
		}
		fast := fastFrac / budget
		slow := slowFrac / budget
		st.fastBits.Store(math.Float64bits(fast))
		st.slowBits.Store(math.Float64bits(slow))

		prev := State(st.state.Load())
		next := prev
		switch {
		case fast >= BurnThreshold && slow >= BurnThreshold:
			next = StateBurning
		case fast < BurnThreshold:
			next = StateOK
		default:
			// Fast window recovered past the threshold but slow has not:
			// stay wherever we were (hysteresis against flapping).
			if prev == StateNoData {
				next = StateOK
			}
		}
		if next == prev {
			continue
		}
		st.state.Store(int32(next))
		st.sinceNS.Store(time.Now().UnixNano())
		st.transitions.Add(1)
		switch next {
		case StateBurning:
			st.burning.Set(1)
			st.toBurning.Inc()
			e.flight.Record(obs.FlightSLOBurn, "", obj.Name, 0, int64(fast*1000))
			e.mu.Lock()
			fn := e.onBurn
			e.mu.Unlock()
			if fn != nil {
				fn(obj.Name)
			}
		case StateOK:
			st.burning.Set(0)
			if prev == StateBurning {
				st.toOK.Inc()
				e.flight.Record(obs.FlightSLOClear, "", obj.Name, 0, int64(fast*1000))
			}
		}
	}
}

// Status returns every objective's current state, in declaration order.
func (e *Engine) Status() []Status {
	if e == nil {
		return nil
	}
	out := make([]Status, 0, len(e.objs))
	for _, st := range e.objs {
		out = append(out, Status{
			Name:        st.obj.Name,
			Kind:        string(st.obj.Kind),
			State:       State(st.state.Load()).String(),
			FastBurn:    math.Float64frombits(st.fastBits.Load()),
			SlowBurn:    math.Float64frombits(st.slowBits.Load()),
			Budget:      st.obj.Budget,
			SinceNS:     st.sinceNS.Load(),
			Transitions: st.transitions.Load(),
			Description: st.obj.Description,
		})
	}
	return out
}

// Burning returns the names of objectives currently in the burning state.
func (e *Engine) Burning() []string {
	var out []string
	for _, s := range e.Status() {
		if s.State == "burning" {
			out = append(out, s.Name)
		}
	}
	return out
}

// Default latency thresholds of ServerObjectives and RouterObjectives.
const (
	ServerLatencyP95 = 500 * time.Millisecond
	ServerLatencyP99 = 2 * time.Second
	RouterLatencyP95 = time.Second
	RouterLatencyP99 = 4 * time.Second
)

// ServerObjectives returns the default objective set for a sufserved
// process. latencyP95 and latencyP99 are the per-request duration bounds
// (zero picks ServerLatencyP95 / ServerLatencyP99); the cache objective is
// only meaningful when the verdict cache is enabled, but burns nothing
// without traffic either way.
func ServerObjectives(latencyP95, latencyP99 time.Duration, withCache bool) []Objective {
	if latencyP95 <= 0 {
		latencyP95 = ServerLatencyP95
	}
	if latencyP99 <= 0 {
		latencyP99 = ServerLatencyP99
	}
	objs := []Objective{
		{
			Name: "availability",
			Kind: ErrorRatio,
			// A panic's 500 is in sufsat_requests_total (status "error");
			// a shed request is not, so the sheds are added to the total.
			Bad: []Selector{
				{Family: "sufsat_shed_total"},
				{Family: "sufsat_panics_total"},
			},
			Total: []Selector{
				{Family: "sufsat_requests_total"},
				{Family: "sufsat_shed_total"},
			},
			Budget:      0.01,
			Description: "99% of offered requests get a decision (not shed, not panicked).",
		},
		{
			Name:             "latency-p95",
			Kind:             Latency,
			Family:           "sufsat_request_duration_seconds",
			ThresholdSeconds: latencyP95.Seconds(),
			Budget:           0.05,
			Description:      fmt.Sprintf("95%% of decisions complete within %v.", latencyP95),
		},
		{
			Name:             "latency-p99",
			Kind:             Latency,
			Family:           "sufsat_request_duration_seconds",
			ThresholdSeconds: latencyP99.Seconds(),
			Budget:           0.01,
			Description:      fmt.Sprintf("99%% of decisions complete within %v.", latencyP99),
		},
		{
			Name: "panic-zero",
			Kind: Zero,
			Bad:  []Selector{{Family: "sufsat_panics_total"}},
			Description: "No contained per-request panics, ever — the server-side " +
				"twin of the bench harness's mismatch==0 gate.",
		},
	}
	if withCache {
		objs = append(objs, Objective{
			Name: "cache-hit",
			Kind: ErrorRatio,
			Bad:  []Selector{{Family: "sufsat_cache_misses_total"}},
			Total: []Selector{
				{Family: "sufsat_cache_hits_total"},
				{Family: "sufsat_cache_misses_total"},
			},
			Budget:      0.5,
			Description: "At least half of cache lookups hit.",
		})
	}
	return objs
}

// RouterObjectives returns the default objective set for a sufrouter
// process.
func RouterObjectives(latencyP95, latencyP99 time.Duration) []Objective {
	if latencyP95 <= 0 {
		latencyP95 = RouterLatencyP95
	}
	if latencyP99 <= 0 {
		latencyP99 = RouterLatencyP99
	}
	return []Objective{
		{
			// A router shed is also sufrouter_requests_total{status="shed"},
			// so the requests alone are the whole denominator.
			Name:        "availability",
			Kind:        ErrorRatio,
			Bad:         []Selector{{Family: "sufrouter_sheds_total"}},
			Total:       []Selector{{Family: "sufrouter_requests_total"}},
			Budget:      0.01,
			Description: "99% of routed requests get a decision (not shed at the router).",
		},
		{
			Name:             "latency-p95",
			Kind:             Latency,
			Family:           "sufrouter_request_duration_seconds",
			ThresholdSeconds: latencyP95.Seconds(),
			Budget:           0.05,
			Description:      fmt.Sprintf("95%% of routed decisions complete within %v.", latencyP95),
		},
		{
			Name:             "latency-p99",
			Kind:             Latency,
			Family:           "sufrouter_request_duration_seconds",
			ThresholdSeconds: latencyP99.Seconds(),
			Budget:           0.01,
			Description:      fmt.Sprintf("99%% of routed decisions complete within %v.", latencyP99),
		},
	}
}
