package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sufsat/internal/obs"
)

// BatchRequest is the JSON body of POST /v1/decide/batch: up to
// Config.MaxBatch independent decision requests answered in one round trip.
// Each item is a full Request (formula, method, budgets, want_model, …);
// item request IDs are derived from the batch's correlation ID as
// "<batch-id>#<index>" unless an item names its own. The derived sub-request
// ID is echoed in the item's response and carried through the item's log
// line and flight-recorder events, so one batch correlates end to end.
type BatchRequest struct {
	Items []Request `json:"items"`
	// RequestID is the batch-level correlation ID (header precedence as for
	// /decide).
	RequestID string `json:"request_id,omitempty"`
}

// BatchResponse is the JSON body of the batch reply. Responses[i] answers
// Items[i]; the batch succeeds per item, so a malformed or shed item leaves
// the rest unaffected. Dedup counts items whose work was shared with an
// identical item (or a cached verdict) rather than solved separately.
type BatchResponse struct {
	Responses []*Response `json:"responses"`
	RequestID string      `json:"request_id,omitempty"`
	// Items is len(Responses); Cached counts items served from the verdict
	// cache or a single-flight join (Response.Cached).
	Items   int     `json:"items"`
	Cached  int     `json:"cached"`
	TotalMS float64 `json:"total_ms"`
}

// handleBatch is POST /v1/decide/batch: decode, fan every item through the
// same decide engine as /decide — concurrently, so in-batch duplicates
// collapse onto one solve via the cache's single-flight and distinct items
// ride the admission queue in parallel — and reply with per-item responses
// in input order.
//
// Identical items in one batch are answered by one solve: the first to reach
// the cache becomes the single-flight leader, the rest join as followers and
// receive the leader's verdict marked Cached. Structural duplicates
// (alpha-renamed or commutatively permuted spellings) collapse the same way,
// since the fingerprint is canonical.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	hdrID := r.Header.Get("X-Request-Id")
	traceID, parentSpan, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	// A rejection of the whole batch leaves through the same exit as a
	// /decide rejection: correlated, logged and flight-recorded.
	var breq BatchRequest
	if resp := s.readRequest(w, r, &breq); resp != nil {
		s.respond(w, resp, obs.ResolveRequestID(hdrID, ""), traceID, start)
		return
	}
	batchID := obs.ResolveRequestID(hdrID, breq.RequestID)
	if n := len(breq.Items); n == 0 || n > s.cfg.MaxBatch {
		s.probe.Malformed()
		msg := "empty batch"
		if n > 0 {
			msg = fmt.Sprintf("batch of %d exceeds limit %d", n, s.cfg.MaxBatch)
		}
		s.respond(w, malformed(msg), batchID, traceID, start)
		return
	}

	out := &BatchResponse{
		Responses: make([]*Response, len(breq.Items)),
		RequestID: batchID,
		Items:     len(breq.Items),
	}
	var wg sync.WaitGroup
	for i := range breq.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &breq.Items[i]
			reqID := req.RequestID
			if !obs.ValidRequestID(reqID) {
				reqID = fmt.Sprintf("%s#%d", batchID, i)
			}
			resp := s.decide(r.Context(), req, reqID, traceID, parentSpan)
			if resp == nil {
				// Client context died; record a canceled item so the slice
				// has no holes if the write races the disconnect.
				resp = &Response{Status: "canceled", Error: "client disconnected"}
			}
			resp.RequestID = reqID
			out.Responses[i] = resp
			s.finishRequest(resp, reqID, traceID, time.Since(start))
		}(i)
	}
	wg.Wait()
	for _, resp := range out.Responses {
		if resp.Cached {
			out.Cached++
		}
	}
	out.TotalMS = float64(time.Since(start).Microseconds()) / 1e3

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Id", batchID)
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(out) //nolint:errcheck
}
