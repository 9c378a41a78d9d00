package router

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"

	"sufsat/internal/obs"
)

// Dynamic fleet membership. The router's pool is not frozen at startup: a
// declarative Reconfigure (driven by PUT /admin/backends and by SIGHUP
// reloads of -backends-file) and imperative add/drain/remove verbs all
// rebuild the member set and atomically swap a copy-on-write fleet view —
// ring plus member map — so every in-flight request keeps the consistent
// view it was admitted under while new requests route on the new one.
// Surviving members carry their breaker state, latency windows and health
// probers across the swap (the *backend structs are shared between views);
// removed members are decommissioned gracefully: marked draining so older
// views stop picking them, their prober reaped synchronously, their
// in-flight attempts left to finish under the normal drain machinery.

// fleetView is one immutable membership snapshot: the ring owns key
// placement over the non-draining members, the map holds every member
// (draining included, so /statusz and the probers still see them).
type fleetView struct {
	ring    *Ring
	members map[string]*backend
}

// ErrUnknownBackend is returned (wrapped) by verbs naming a non-member.
var ErrUnknownBackend = errors.New("router: unknown backend")

// errRouterDraining rejects membership changes on a shut-down router.
var errRouterDraining = errors.New("router: draining, membership frozen")

// MembershipChange summarizes one membership operation: what changed, the
// epoch after the swap, and the sampled fraction of the keyspace whose home
// node moved. A no-op change (e.g. a PUT naming the current set) reports the
// current epoch and moves nothing.
type MembershipChange struct {
	Epoch uint64 `json:"epoch"`
	// Added lists newly created members (state joining); Reactivated lists
	// draining members restored to active; Drained / Removed name the verbs'
	// victims.
	Added       []string `json:"added,omitempty"`
	Reactivated []string `json:"reactivated,omitempty"`
	Drained     []string `json:"drained,omitempty"`
	Removed     []string `json:"removed,omitempty"`
	// Backends counts members after the change; ActiveBackends counts ring
	// members (non-draining).
	Backends       int `json:"backends"`
	ActiveBackends int `json:"active_backends"`
	// KeysMovedRatio is the fraction of a fixed sampled key corpus whose home
	// backend differs between the old and new rings — the measured cost of
	// the change against the ring's ~1/N rebalance bound.
	KeysMovedRatio float64 `json:"keys_moved_ratio"`
}

// noop reports whether the change altered membership at all.
func (c *MembershipChange) noop() bool {
	return len(c.Added)+len(c.Reactivated)+len(c.Drained)+len(c.Removed) == 0
}

// MemberStatus is one member's row in the admin API (GET /admin/backends).
type MemberStatus struct {
	URL           string  `json:"url"`
	State         string  `json:"state"`   // joining | active | draining
	Breaker       string  `json:"breaker"` // closed | half-open | open
	ErrorRate     float64 `json:"error_rate"`
	ProbeFailures int     `json:"probe_failures"`
	ReopenInMS    int64   `json:"reopen_in_ms,omitempty"`
}

// ParseBackendList validates and normalizes a backend URL list: entries are
// trimmed, empties dropped, trailing slashes removed; every entry must be an
// absolute http(s) URL with a host, and the normalized list must be
// duplicate-free. Unlike a first-error-only check, every bad entry is
// reported, one message per entry, so a long -backends-file is fixed in one
// round trip.
func ParseBackendList(entries []string) ([]string, error) {
	out := make([]string, 0, len(entries))
	var errs []string
	seen := make(map[string]int, len(entries))
	n := 0
	for _, raw := range entries {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		n++
		u, err := url.Parse(s)
		switch {
		case err != nil:
			errs = append(errs, fmt.Sprintf("entry %d %q: %v", n, s, err))
			continue
		case u.Scheme != "http" && u.Scheme != "https":
			errs = append(errs, fmt.Sprintf("entry %d %q: scheme %q (want http or https)", n, s, u.Scheme))
			continue
		case u.Host == "":
			errs = append(errs, fmt.Sprintf("entry %d %q: missing host", n, s))
			continue
		}
		norm := strings.TrimRight(s, "/")
		if first, dup := seen[norm]; dup {
			errs = append(errs, fmt.Sprintf("entry %d %q: duplicate of entry %d", n, s, first))
			continue
		}
		seen[norm] = n
		out = append(out, norm)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("router: invalid backend list: %s", strings.Join(errs, "; "))
	}
	return out, nil
}

// moveProbeKeys is the fixed corpus key movement is sampled over: enough
// keys that the measured ratio tracks the real keyspace fraction, few enough
// that a reconfiguration stays cheap (2×1024 ring walks).
var moveProbeKeys = func() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", mix64(uint64(i)*0x9e3779b97f4a7c15+1))
	}
	return keys
}()

// movedRatio samples the fraction of moveProbeKeys whose home node differs
// between the two rings. Either ring being empty yields 0 (no measurable
// ownership on one side).
func movedRatio(old, new *Ring) float64 {
	if old == nil || old.Len() == 0 || new.Len() == 0 {
		return 0
	}
	moved := 0
	for _, k := range moveProbeKeys {
		a := old.Order(k, 1)
		b := new.Order(k, 1)
		if len(a) > 0 && len(b) > 0 && a[0] != b[0] {
			moved++
		}
	}
	return float64(moved) / float64(len(moveProbeKeys))
}

// flightName renders a backend URL as a flight-recorder event name: the
// scheme is stripped so host:port fits the recorder's 16-byte name slots.
func flightName(name string) string {
	s := strings.TrimPrefix(name, "http://")
	return strings.TrimPrefix(s, "https://")
}

// Epoch returns the monotonic membership epoch: 1 at construction, +1 per
// effective membership change.
func (rt *Router) Epoch() uint64 { return rt.epoch.Load() }

// LastMoveRatio returns the sampled moved-key ratio of the most recent
// effective membership change (0 before any change).
func (rt *Router) LastMoveRatio() float64 {
	return math.Float64frombits(rt.lastMoveRatio.Load())
}

// member resolves a name against the current view.
func (rt *Router) member(name string) (*backend, bool) {
	b, ok := rt.view.Load().members[name]
	return b, ok
}

// Members reports every current member's status, sorted by URL.
func (rt *Router) Members() []MemberStatus {
	v := rt.view.Load()
	out := make([]MemberStatus, 0, len(v.members))
	for name, b := range v.members {
		ms := MemberStatus{
			URL:           name,
			State:         b.memberState().String(),
			Breaker:       b.br.State().String(),
			ErrorRate:     b.br.ErrorRate(),
			ProbeFailures: b.br.ConsecutiveProbeFailures(),
		}
		if ra := b.br.ReopenIn(); ra > 0 {
			ms.ReopenInMS = ra.Milliseconds()
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// registerBackendMetrics registers the per-backend gauges for name. The
// closures resolve the backend through the current view at scrape time, so
// they survive remove→re-add cycles (a fresh *backend under the same name)
// and report -1 once the name is no longer a member. RouterMetrics dedupes
// re-registration of a name that already has gauges.
func (rt *Router) registerBackendMetrics(name string) {
	rt.metrics.RegisterBackend(name,
		func() float64 {
			if b, ok := rt.member(name); ok {
				return float64(b.br.State())
			}
			return -1
		},
		func() float64 {
			if b, ok := rt.member(name); ok {
				return float64(b.memberState())
			}
			return -1
		})
}

// applyLocked installs next as the member set: builds the new ring over its
// non-draining members, samples key movement against the old ring, bumps the
// epoch, swaps the view, emits metrics/flight/log signals, and synchronously
// reaps the probers of removed members. ch arrives with the verb fields
// (Added/Reactivated/Drained/Removed) filled and leaves complete. Caller
// holds memberMu. A no-op ch skips the swap and reports the current epoch.
func (rt *Router) applyLocked(next map[string]*backend, removed []*backend, ch *MembershipChange) {
	cur := rt.view.Load()
	if ch.noop() {
		ch.Epoch = rt.epoch.Load()
		ch.Backends = len(cur.members)
		ch.ActiveBackends = cur.ring.Len()
		return
	}
	ring := NewRing(rt.cfg.Replicas)
	for name, b := range next {
		if !b.isDraining() {
			ring.Add(name)
		}
	}
	ratio := movedRatio(cur.ring, ring)
	ch.Epoch = rt.epoch.Add(1)
	ch.Backends = len(next)
	ch.ActiveBackends = ring.Len()
	ch.KeysMovedRatio = ratio
	rt.lastMoveRatio.Store(math.Float64bits(ratio))
	rt.view.Store(&fleetView{ring: ring, members: next})

	moved := int(ratio * float64(len(moveProbeKeys)))
	rt.metrics.ObserveMembership(len(ch.Added)+len(ch.Reactivated), len(ch.Drained), len(ch.Removed), moved)
	ep := int64(ch.Epoch)
	for _, n := range ch.Added {
		obs.Flight.Record(obs.FlightMemberJoin, "", flightName(n), 0, ep)
	}
	for _, n := range ch.Reactivated {
		obs.Flight.Record(obs.FlightMemberJoin, "", flightName(n), 0, ep)
	}
	for _, n := range ch.Drained {
		obs.Flight.Record(obs.FlightMemberDrain, "", flightName(n), 0, ep)
	}
	for _, n := range ch.Removed {
		obs.Flight.Record(obs.FlightMemberRemove, "", flightName(n), 0, ep)
	}

	// Graceful decommission of removed members: draining stops older views
	// from picking them for new attempts; the prober reap is synchronous so
	// "removed" provably means "no goroutine left". In-flight attempts hold
	// the shared *backend and settle their breaker bookkeeping normally.
	for _, b := range removed {
		b.state.Store(int32(MemberDraining))
		b.probeCancel()
		<-b.probeDone
		b.closeIdle()
	}
	rt.log("membership", "epoch", ch.Epoch, "backends", ch.Backends, "active", ch.ActiveBackends,
		"moved", ratio, "added", ch.Added, "reactivated", ch.Reactivated,
		"drained", ch.Drained, "removed", ch.Removed)
}

// Reconfigure declares the desired ACTIVE backend set and is the single
// funnel for declarative membership changes (PUT /admin/backends and the
// SIGHUP -backends-file reload both land here). Desired members that are new
// join (state joining, on the ring immediately); desired members currently
// draining are reactivated; members absent from desired are removed with
// graceful decommission. Surviving members keep their breaker, latency
// window and prober.
func (rt *Router) Reconfigure(desired []string) (*MembershipChange, error) {
	normalized, err := ParseBackendList(desired)
	if err != nil {
		return nil, err
	}
	if len(normalized) == 0 {
		return nil, errors.New("router: refusing empty desired backend set")
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	if rt.draining.Load() {
		return nil, errRouterDraining
	}
	cur := rt.view.Load()
	next := make(map[string]*backend, len(normalized))
	ch := &MembershipChange{}
	want := make(map[string]bool, len(normalized))
	for _, name := range normalized {
		want[name] = true
		if b, ok := cur.members[name]; ok {
			if b.memberState() == MemberDraining {
				b.state.Store(int32(MemberActive))
				ch.Reactivated = append(ch.Reactivated, name)
			}
			next[name] = b
			continue
		}
		b := newBackend(name, rt.cfg.Breaker, MemberJoining)
		rt.startProber(b)
		rt.registerBackendMetrics(name)
		next[name] = b
		ch.Added = append(ch.Added, name)
	}
	var removed []*backend
	for name, b := range cur.members {
		if !want[name] {
			removed = append(removed, b)
			ch.Removed = append(ch.Removed, name)
		}
	}
	rt.applyLocked(next, removed, ch)
	return ch, nil
}

// AddBackend adds one member (state joining) or reactivates it if draining.
// Adding an existing non-draining member is a no-op.
func (rt *Router) AddBackend(rawURL string) (*MembershipChange, error) {
	name, err := parseOne(rawURL)
	if err != nil {
		return nil, err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	if rt.draining.Load() {
		return nil, errRouterDraining
	}
	cur := rt.view.Load()
	ch := &MembershipChange{}
	next := cloneMembers(cur.members)
	if b, ok := next[name]; ok {
		if b.memberState() == MemberDraining {
			b.state.Store(int32(MemberActive))
			ch.Reactivated = append(ch.Reactivated, name)
		}
	} else {
		b := newBackend(name, rt.cfg.Breaker, MemberJoining)
		rt.startProber(b)
		rt.registerBackendMetrics(name)
		next[name] = b
		ch.Added = append(ch.Added, name)
	}
	rt.applyLocked(next, nil, ch)
	return ch, nil
}

// DrainBackend takes one member out of the ring without removing it: it
// owns no new keys and is never a primary, hedge or failover target, but
// keeps its prober, breaker and in-flight attempts. Draining an already
// draining member is a no-op; an unknown member is ErrUnknownBackend.
func (rt *Router) DrainBackend(rawURL string) (*MembershipChange, error) {
	name, err := parseOne(rawURL)
	if err != nil {
		return nil, err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	if rt.draining.Load() {
		return nil, errRouterDraining
	}
	cur := rt.view.Load()
	b, ok := cur.members[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownBackend, name)
	}
	ch := &MembershipChange{}
	if b.memberState() != MemberDraining {
		b.state.Store(int32(MemberDraining))
		ch.Drained = append(ch.Drained, name)
	}
	rt.applyLocked(cloneMembers(cur.members), nil, ch)
	return ch, nil
}

// RemoveBackend decommissions one member: out of the ring, prober reaped,
// dropped from the member set. Removing the last member is refused; an
// unknown member is ErrUnknownBackend.
func (rt *Router) RemoveBackend(rawURL string) (*MembershipChange, error) {
	name, err := parseOne(rawURL)
	if err != nil {
		return nil, err
	}
	rt.memberMu.Lock()
	defer rt.memberMu.Unlock()
	if rt.draining.Load() {
		return nil, errRouterDraining
	}
	cur := rt.view.Load()
	b, ok := cur.members[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownBackend, name)
	}
	if len(cur.members) == 1 {
		return nil, errors.New("router: refusing to remove the last backend")
	}
	next := cloneMembers(cur.members)
	delete(next, name)
	ch := &MembershipChange{Removed: []string{name}}
	rt.applyLocked(next, []*backend{b}, ch)
	return ch, nil
}

// parseOne validates a single backend URL through the shared list parser.
func parseOne(rawURL string) (string, error) {
	norm, err := ParseBackendList([]string{rawURL})
	if err != nil {
		return "", err
	}
	if len(norm) == 0 {
		return "", errors.New("router: empty backend URL")
	}
	return norm[0], nil
}

// cloneMembers shallow-copies a member map for the next view.
func cloneMembers(m map[string]*backend) map[string]*backend {
	out := make(map[string]*backend, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}
