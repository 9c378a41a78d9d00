package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// tracingBackend is a fake sufserved that participates in distributed
// traces: it joins the traceparent header the router sends, records a
// request span wrapping a solve span on a traced recorder, and returns the
// snapshot — the minimal honest backend for merge tests. With fail set it
// cuts every connection instead.
type tracingBackend struct {
	srv  *httptest.Server
	fail atomic.Bool
}

func newTracingBackend(t *testing.T) *tracingBackend {
	t.Helper()
	tb := &tracingBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		if tb.fail.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		rec := obs.NewRecorder()
		rec.SetRequestID(r.Header.Get("X-Request-Id"))
		if traceID, parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			rec.SetTraceContext(traceID, parent)
		}
		reqSp := rec.StartSpan("request")
		solveSp := rec.StartSpan("solve")
		time.Sleep(2 * time.Millisecond)
		solveSp.End()
		reqSp.End()
		snap := (&obs.Snapshot{Method: "HYBRID", Status: "valid"}).Finish(rec)
		resp := &server.Response{Status: "valid", Telemetry: snap}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	tb.srv = httptest.NewServer(mux)
	t.Cleanup(tb.srv.Close)
	return tb
}

// slowEntries fetches the exemplars of the slowlog served at base.
func slowEntries(t *testing.T, base string) []obs.SlowEntry {
	t.Helper()
	resp, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatalf("GET /debug/slowlog: %v", err)
	}
	defer resp.Body.Close()
	var dump obs.SlowLogDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode /debug/slowlog: %v", err)
	}
	return dump.Entries
}

// TestRouterTraceMerge drives a want_telemetry request through a failover
// (dead primary, healthy next ring node) and pins the tentpole contract:
// the response carries ONE merged cross-tier timeline — route span, a failed
// and a winning attempt span, the backend's phase spans parented to the
// winning attempt — that the strict fleet validator accepts, and the request
// lands in the router's slowlog with its disposition.
func TestRouterTraceMerge(t *testing.T) {
	b1, b2 := newTracingBackend(t), newTracingBackend(t)
	cfg := Config{
		Backends:       []string{b1.srv.URL, b2.srv.URL},
		HedgeDelay:     -1,
		HealthInterval: time.Hour,
		Registry:       obs.NewRegistry(),
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	// Kill whichever backend the ring picks as the formula's home node, so
	// the request must fail over to the other.
	order := rt.view.Load().ring.Order(mustFingerprint(t), 2)
	dead, healthy := b1, b2
	if order[0] == b2.srv.URL {
		dead, healthy = b2, b1
	}
	dead.fail.Store(true)

	body, _ := json.Marshal(&server.Request{Formula: testFormula, WantTelemetry: true})
	hresp, err := http.Post(srv.URL+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer hresp.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Status != "valid" || resp.Telemetry == nil {
		t.Fatalf("status %q telemetry=%v — failover answer with telemetry expected", resp.Status, resp.Telemetry != nil)
	}
	if !obs.ValidTraceID(resp.Telemetry.TraceID) {
		t.Fatalf("merged snapshot trace_id %q invalid", resp.Telemetry.TraceID)
	}

	// The merged timeline: route + 2 attempts (router tier) + the backend's
	// request and solve spans, every one carrying span identity.
	names := map[string]int{}
	attemptOutcomes := map[string]bool{}
	var winnerID string
	for _, sp := range resp.Telemetry.Spans {
		names[sp.Name]++
		if sp.SpanID == "" {
			t.Errorf("merged span %q has no span_id", sp.Name)
		}
		if sp.Name == "attempt" {
			out, _ := sp.Attrs["outcome"].(string)
			attemptOutcomes[out] = true
			if w, _ := sp.Attrs["winner"].(bool); w {
				winnerID = sp.SpanID
			}
		}
	}
	if names["route"] != 1 || names["attempt"] != 2 || names["request"] != 1 || names["solve"] != 1 {
		t.Fatalf("merged span census %v, want 1 route / 2 attempts / 1 request / 1 solve", names)
	}
	if !attemptOutcomes["failed"] || !attemptOutcomes["won"] {
		t.Errorf("attempt outcomes %v, want a failed and a won attempt", attemptOutcomes)
	}
	for _, sp := range resp.Telemetry.Spans {
		if sp.Name == "request" && sp.ParentID != winnerID {
			t.Errorf("backend request span parented to %q, want the winning attempt %q", sp.ParentID, winnerID)
		}
	}

	// The strict fleet validator accepts the rendered trace.
	var buf bytes.Buffer
	if err := obs.WriteFleetChromeTrace(&buf, resp.Telemetry); err != nil {
		t.Fatalf("WriteFleetChromeTrace: %v", err)
	}
	if err := obs.ValidateFleetTrace(buf.Bytes()); err != nil {
		t.Fatalf("merged trace rejected: %v\n%s", err, buf.String())
	}

	// The request is in the router's slowlog with its disposition.
	entries := slowEntries(t, srv.URL)
	if len(entries) == 0 {
		t.Fatal("router slowlog empty after a routed request")
	}
	e := entries[0]
	if !e.FailedOver || e.Hedged {
		t.Errorf("slowlog disposition failed_over=%v hedged=%v, want true/false", e.FailedOver, e.Hedged)
	}
	if e.Backend != healthy.srv.URL {
		t.Errorf("slowlog backend %q, want %q", e.Backend, healthy.srv.URL)
	}
	if e.TraceID != resp.Telemetry.TraceID {
		t.Errorf("slowlog trace_id %q != snapshot %q", e.TraceID, resp.Telemetry.TraceID)
	}
	if len(e.Spans) != len(resp.Telemetry.Spans) {
		t.Errorf("slowlog kept %d spans, snapshot has %d", len(e.Spans), len(resp.Telemetry.Spans))
	}
}

// TestRouterUntracedUnchanged pins the zero-cost default: a request with no
// traceparent and no want_telemetry gets no trace — no telemetry block, no
// traceparent forwarded — while the slowlog still records the disposition.
func TestRouterUntracedUnchanged(t *testing.T) {
	var sawTraceparent atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		if r.Header.Get(obs.TraceparentHeader) != "" {
			sawTraceparent.Store(true)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"valid"}`) //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	be := httptest.NewServer(mux)
	t.Cleanup(be.Close)

	rt, err := New(Config{
		Backends:       []string{be.URL},
		HedgeDelay:     -1,
		HealthInterval: time.Hour,
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx) //nolint:errcheck
	})

	resp, _ := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if resp.Status != "valid" || resp.Telemetry != nil {
		t.Fatalf("untraced request: status %q telemetry=%v", resp.Status, resp.Telemetry)
	}
	if sawTraceparent.Load() {
		t.Error("router forwarded a traceparent for an untraced request")
	}
	if entries := slowEntries(t, srv.URL); len(entries) == 0 || entries[0].TraceID != "" {
		t.Errorf("slowlog for untraced request = %+v, want one entry with no trace_id", entries)
	}
}
