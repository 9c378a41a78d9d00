package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size lock-free ring of recent request, span and
// degradation events, always on, so the last seconds before an incident are
// recoverable from a panic handler, a SIGQUIT dump or /debug/flightrec even
// when nothing was scraping.
//
// Every slot field is individually atomic — the ring is written and read
// without locks and stays clean under the race detector. A writer claims a
// ticket, invalidates the slot (seq←0), stores the fields, then publishes
// the ticket; a reader loads seq, copies the fields, and re-checks seq,
// discarding the slot if a writer overlapped. The record path performs zero
// allocations: the request ID and event name are packed into two uint64
// words each (16 bytes, longer strings truncated), timestamps are
// UnixNano integers.

// FlightKind classifies a flight-recorder event.
type FlightKind uint32

const (
	FlightSpan         FlightKind = iota + 1 // a pipeline span ended (name = span, dur set)
	FlightAdmit                              // request admitted to the queue
	FlightStart                              // worker began executing a request
	FlightDone                               // response written (name = status)
	FlightShed                               // request shed (name = reason)
	FlightDegrade                            // degradation ladder engaged (name = reason)
	FlightPanic                              // contained per-request panic
	FlightMalformed                          // pre-admission rejection
	FlightCacheHit                           // verdict served from the cache (val: 0 = lookup, 1 = single-flight join)
	FlightCacheMiss                          // cache lookup missed; a fresh solve follows
	FlightCacheParked                        // single-flight follower parked behind the leader
	FlightCacheWoken                         // parked follower woken (val: 1 = usable verdict, 0 = solves alone)
	FlightMemberJoin                         // backend joined or reactivated (name = host:port, val = epoch)
	FlightMemberDrain                        // backend drained out of the ring (name = host:port, val = epoch)
	FlightMemberRemove                       // backend removed from the pool (name = host:port, val = epoch)
	FlightSLOBurn                            // SLO entered burning state (name = objective, val = fast burn x1000)
	FlightSLOClear                           // SLO recovered to ok (name = objective, val = fast burn x1000)
	FlightProfile                            // trigger-fired profile captured (name = trigger, req/trace ID attached)
)

// String returns the dump-schema name of the kind.
func (k FlightKind) String() string {
	switch k {
	case FlightSpan:
		return "span"
	case FlightAdmit:
		return "admit"
	case FlightStart:
		return "start"
	case FlightDone:
		return "done"
	case FlightShed:
		return "shed"
	case FlightDegrade:
		return "degrade"
	case FlightPanic:
		return "panic"
	case FlightMalformed:
		return "malformed"
	case FlightCacheHit:
		return "cache-hit"
	case FlightCacheMiss:
		return "cache-miss"
	case FlightCacheParked:
		return "cache-parked"
	case FlightCacheWoken:
		return "cache-woken"
	case FlightMemberJoin:
		return "member-join"
	case FlightMemberDrain:
		return "member-drain"
	case FlightMemberRemove:
		return "member-remove"
	case FlightSLOBurn:
		return "slo-burn"
	case FlightSLOClear:
		return "slo-clear"
	case FlightProfile:
		return "profile"
	}
	return "unknown"
}

// flightSlot is one ring entry; all fields atomic (see package comment).
type flightSlot struct {
	seq      atomic.Uint64 // ticket+1 when valid, 0 while being written
	atNS     atomic.Int64
	kind     atomic.Uint32
	durUS    atomic.Int64
	val      atomic.Int64
	id0, id1 atomic.Uint64 // request ID, 16 ASCII bytes packed
	nm0, nm1 atomic.Uint64 // event name, 16 ASCII bytes packed
}

// FlightRecorder is the ring. Create with NewFlightRecorder; the package
// also provides the always-on Flight instance. A nil *FlightRecorder
// ignores Record.
type FlightRecorder struct {
	slots []flightSlot
	next  atomic.Uint64 // tickets handed out (1-based)
}

// DefaultFlightSize is the ring capacity of the package-level Flight
// recorder — ~4k events of recent history at a few hundred bytes each.
const DefaultFlightSize = 4096

// Flight is the process-wide always-on recorder. The server and the
// pipelines record into it by default; dumps read from it.
var Flight = NewFlightRecorder(DefaultFlightSize)

// NewFlightRecorder returns a ring holding the last n events (n < 16 is
// raised to 16).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 16 {
		n = 16
	}
	return &FlightRecorder{slots: make([]flightSlot, n)}
}

// pack16 packs up to 16 bytes of s into two words (little-endian per word).
func pack16(s string) (a, b uint64) {
	n := len(s)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n && i < 8; i++ {
		a |= uint64(s[i]) << (8 * i)
	}
	for i := 8; i < n; i++ {
		b |= uint64(s[i]) << (8 * (i - 8))
	}
	return a, b
}

// unpack16 reverses pack16, trimming the zero-byte padding.
func unpack16(a, b uint64) string {
	var buf [16]byte
	n := 0
	for i := 0; i < 8; i++ {
		c := byte(a >> (8 * i))
		if c == 0 {
			return string(buf[:n])
		}
		buf[n] = c
		n++
	}
	for i := 0; i < 8; i++ {
		c := byte(b >> (8 * i))
		if c == 0 {
			return string(buf[:n])
		}
		buf[n] = c
		n++
	}
	return string(buf[:n])
}

// Record appends one event: the kind, the request ID and name (truncated to
// 16 bytes each), an optional duration in microseconds and an optional
// numeric payload. Lock-free, allocation-free, safe from any goroutine; on a
// nil recorder it no-ops.
func (f *FlightRecorder) Record(kind FlightKind, reqID, name string, durUS, val int64) {
	if f == nil {
		return
	}
	ticket := f.next.Add(1)
	slot := &f.slots[(ticket-1)%uint64(len(f.slots))]
	slot.seq.Store(0) // invalidate while the fields are in flux
	slot.atNS.Store(time.Now().UnixNano())
	slot.kind.Store(uint32(kind))
	slot.durUS.Store(durUS)
	slot.val.Store(val)
	a, b := pack16(reqID)
	slot.id0.Store(a)
	slot.id1.Store(b)
	a, b = pack16(name)
	slot.nm0.Store(a)
	slot.nm1.Store(b)
	slot.seq.Store(ticket) // publish
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Recorded returns the total number of events ever recorded.
func (f *FlightRecorder) Recorded() int64 {
	if f == nil {
		return 0
	}
	return int64(f.next.Load())
}

// Overwritten returns how many events have been displaced by ring
// wraparound (monotonic).
func (f *FlightRecorder) Overwritten() int64 {
	if f == nil {
		return 0
	}
	n := int64(f.next.Load()) - int64(len(f.slots))
	if n < 0 {
		return 0
	}
	return n
}

// FlightEvent is the exported form of one ring entry.
type FlightEvent struct {
	Seq   uint64 `json:"seq"`
	AtNS  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	ReqID string `json:"req_id,omitempty"`
	Name  string `json:"name,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`
	Value int64  `json:"value,omitempty"`
}

// Events returns a consistent-enough copy of the ring, oldest first. Slots
// a writer was mid-update on are skipped (their next dump will have them).
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		slot := &f.slots[i]
		seq := slot.seq.Load()
		if seq == 0 {
			continue
		}
		ev := FlightEvent{
			Seq:   seq,
			AtNS:  slot.atNS.Load(),
			Kind:  FlightKind(slot.kind.Load()).String(),
			DurUS: slot.durUS.Load(),
			Value: slot.val.Load(),
			ReqID: unpack16(slot.id0.Load(), slot.id1.Load()),
			Name:  unpack16(slot.nm0.Load(), slot.nm1.Load()),
		}
		if slot.seq.Load() != seq {
			continue // a writer overlapped; the copy may be torn
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// FlightDump is the JSON dump schema (documented in docs/FORMATS.md).
type FlightDump struct {
	DumpedAtNS  int64         `json:"dumped_at_ns"`
	Cap         int           `json:"cap"`
	Recorded    int64         `json:"recorded"`
	Overwritten int64         `json:"overwritten"`
	Events      []FlightEvent `json:"events"`
}

// Dump builds the dump structure. It copies the events first and then
// derives both counts from one load of the ticket counter, so an event
// recorded while the dump is taken can raise the counts but never appear
// without being counted: every event's seq is at most Recorded.
func (f *FlightRecorder) Dump() *FlightDump {
	d := &FlightDump{DumpedAtNS: time.Now().UnixNano(), Cap: f.Cap(), Events: f.Events()}
	if f != nil {
		d.Recorded = int64(f.next.Load())
		d.Overwritten = max(d.Recorded-int64(len(f.slots)), 0)
	}
	return d
}

// WriteJSON writes the dump as indented JSON (the panic/SIGQUIT dump and the
// /debug/flightrec body).
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Dump())
}

// Handler returns the /debug/flightrec endpoint.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f.WriteJSON(w) //nolint:errcheck // client gone; nothing to do
	})
}
