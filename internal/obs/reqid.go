package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// Request correlation: one ID minted at the edge (client or server) joins a
// response header, a structured log line, a telemetry snapshot, a trace file
// and the flight-recorder events of the same request.

// NewRequestID mints a 16-hex-character random request ID — 64 bits, short
// enough to pack into a flight-recorder slot whole and to read aloud off a
// dashboard.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps the
		// service up and is obvious in logs.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a caller-supplied ID is acceptable: 1–64
// bytes of printable ASCII with no spaces, quotes or backslashes, so it can
// ride in headers, label values and log lines unescaped.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// ResolveRequestID picks a request's correlation ID with the precedence
// every tier shares: a valid X-Request-Id header, then a valid request_id
// from the body, then a freshly minted ID. Pass body "" when the body has not
// been decoded, as on shed and malformed responses.
func ResolveRequestID(header, body string) string {
	if ValidRequestID(header) {
		return header
	}
	if ValidRequestID(body) {
		return body
	}
	return NewRequestID()
}

// SetRequestID attaches the request's correlation ID to the recorder; spans
// ended on this recorder carry it into the flight ring, and Snapshot.Finish
// stamps it onto the snapshot. No-op on nil.
func (r *Recorder) SetRequestID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.reqID = id
	r.mu.Unlock()
}

// RequestID returns the recorder's correlation ID ("" for nil or unset).
func (r *Recorder) RequestID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reqID
}

// SetTraceContext attaches a distributed-trace identity to the recorder:
// spans started afterwards are minted span IDs, the first one becomes the
// local root parented to parentSpanID (the remote sender's span; "" for a
// trace rooted here), and Snapshot.Finish stamps the trace ID. Call before
// the first StartSpan. No-op on nil.
func (r *Recorder) SetTraceContext(traceID, parentSpanID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traceID = traceID
	r.parentSpanID = parentSpanID
	r.mu.Unlock()
}

// TraceID returns the recorder's trace ID ("" for nil or untraced).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// RootSpanID returns the span ID of the recorder's root span ("" before the
// first span, or when untraced).
func (r *Recorder) RootSpanID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rootSpanID
}

// SetFlight routes this recorder's span-end events into a flight ring
// (normally the package-level Flight). No-op on nil.
func (r *Recorder) SetFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flight = f
	r.mu.Unlock()
}
