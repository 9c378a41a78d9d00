package router

import (
	"context"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/server/client"
)

// MemberState is a pool member's position in the membership lifecycle.
// Distinct from the breaker state: membership says whether the router WANTS
// to send a backend traffic, the breaker says whether it currently CAN.
type MemberState int32

const (
	// MemberJoining: added at runtime, already owning ring keys, not yet
	// proven healthy. Flips to active on the first successful probe or the
	// first winning response.
	MemberJoining MemberState = iota
	// MemberActive: a full pool member.
	MemberActive
	// MemberDraining: still a member (probed, visible in /statusz) but owns
	// no ring keys and is never picked as a primary, hedge or failover
	// target — the state a backend sits in while its in-flight work finishes
	// ahead of a restart or removal. Removed backends are also marked
	// draining so in-flight requests holding an older view skip them.
	MemberDraining
)

// String returns the /statusz and admin-API spelling.
func (s MemberState) String() string {
	switch s {
	case MemberJoining:
		return "joining"
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	}
	return "unknown"
}

// latWindow is a fixed-size sliding window of observed attempt latencies,
// the sample the hedge delay's p95 is derived from. Safe for concurrent use.
type latWindow struct {
	mu     sync.Mutex
	buf    []time.Duration
	sorted []time.Duration // Quantile's scratch copy of buf
	n      int             // filled entries
	next   int             // ring cursor
}

func newLatWindow(size int) *latWindow {
	if size <= 0 {
		size = 256
	}
	return &latWindow{buf: make([]time.Duration, size), sorted: make([]time.Duration, size)}
}

// Observe records one successful attempt's latency.
func (w *latWindow) Observe(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Quantile returns the q-quantile (q in [0,1]) of the window, or 0 when the
// window is empty: the element at index int(q·(n−1)) of the n filled
// entries in ascending order, sorted under the lock in the window's own
// scratch buffer.
func (w *latWindow) Quantile(q float64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	sample := w.sorted[:w.n]
	copy(sample, w.buf[:w.n])
	slices.Sort(sample)
	idx := min(max(int(q*float64(w.n-1)), 0), w.n-1)
	return sample[idx]
}

// backend is one pool member: its client, its breaker, its latency window,
// its membership state, and its health prober's lifecycle handles. The
// struct is shared across fleet views, so breaker and latency bookkeeping
// from attempts launched under an older view still lands on the same member
// after a reconfiguration.
type backend struct {
	name  string // base URL; also the ring member and metric label
	cl    *client.Client
	tr    *http.Transport // this member's own connection pool
	br    *Breaker
	lat   *latWindow
	state atomic.Int32 // MemberState

	// probeCancel stops this member's prober; probeDone closes when the
	// prober goroutine has returned. Together they make prober teardown on
	// removal provable (LeakCheck) instead of deferred to router Shutdown.
	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

func newBackend(baseURL string, bcfg BreakerConfig, st MemberState) *backend {
	// Each member gets its own transport rather than sharing
	// http.DefaultTransport: removal can then drop exactly this member's
	// keep-alive pool (closeIdle) instead of leaving conn goroutines parked
	// for the idle timeout — or flushing every other member's warm conns.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	b := &backend{
		name: baseURL,
		cl:   client.New(baseURL),
		tr:   tr,
		br:   NewBreaker(bcfg),
		lat:  newLatWindow(256),
	}
	b.cl.HTTP = &http.Client{Timeout: 5 * time.Minute, Transport: tr}
	b.state.Store(int32(st))
	return b
}

// closeIdle drops the member's pooled keep-alive connections. Called on
// decommission after the prober is reaped; attempts still in flight under an
// older view are unaffected (only idle conns are closed) and their conns are
// released when they settle.
func (b *backend) closeIdle() { b.tr.CloseIdleConnections() }

// memberState reads the member's current lifecycle state.
func (b *backend) memberState() MemberState { return MemberState(b.state.Load()) }

// isDraining reports whether the member must not receive new attempts.
func (b *backend) isDraining() bool { return b.memberState() == MemberDraining }

// activate flips a joining member to active; it reports whether this call
// performed the transition (so the caller can log/record it exactly once).
func (b *backend) activate() bool {
	return b.state.CompareAndSwap(int32(MemberJoining), int32(MemberActive))
}
