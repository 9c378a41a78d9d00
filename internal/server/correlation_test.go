package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// postDecide POSTs raw JSON to /decide with optional headers and decodes
// the response.
func postDecide(t *testing.T, url, body string, headers map[string]string) (*server.Response, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/decide", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &resp, hresp
}

// TestRequestCorrelation pins the correlation-ID contract: the X-Request-Id
// header wins over the body field, the body field wins over server minting,
// and whatever ID is chosen appears in the response body, the response
// header, the telemetry snapshot and the structured request log.
func TestRequestCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &syncWriter{buf: &logBuf}
	flight := obs.NewFlightRecorder(256)
	s := server.New(server.Config{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(logMu, nil)),
		Flight:  flight,
	})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		hs.Close()
	})

	// Header beats body.
	resp, hresp := postDecide(t, hs.URL,
		`{"formula":"(=> (= x y) (= (f x) (f y)))","request_id":"from-body","want_telemetry":true}`,
		map[string]string{"X-Request-Id": "from-header"})
	if resp.Status != "valid" {
		t.Fatalf("status %q", resp.Status)
	}
	if resp.RequestID != "from-header" {
		t.Errorf("response request_id %q, want the header's", resp.RequestID)
	}
	if got := hresp.Header.Get("X-Request-Id"); got != "from-header" {
		t.Errorf("response header X-Request-Id %q, want from-header", got)
	}
	if resp.Telemetry == nil || resp.Telemetry.RequestID != "from-header" {
		t.Errorf("telemetry snapshot request_id = %+v, want from-header", resp.Telemetry)
	}

	// Body alone.
	resp, hresp = postDecide(t, hs.URL,
		`{"formula":"(=> (= x y) (= (f x) (f y)))","request_id":"from-body"}`, nil)
	if resp.RequestID != "from-body" || hresp.Header.Get("X-Request-Id") != "from-body" {
		t.Errorf("body-minted ID not echoed: body=%q header=%q",
			resp.RequestID, hresp.Header.Get("X-Request-Id"))
	}

	// Neither: the server mints a valid ID.
	resp, hresp = postDecide(t, hs.URL, `{"formula":"(=> (= x y) (= (f x) (f y)))"}`, nil)
	if !obs.ValidRequestID(resp.RequestID) {
		t.Errorf("server-minted ID %q invalid", resp.RequestID)
	}
	if hresp.Header.Get("X-Request-Id") != resp.RequestID {
		t.Errorf("header %q != body %q", hresp.Header.Get("X-Request-Id"), resp.RequestID)
	}

	// A garbage header is ignored, not echoed.
	resp, hresp = postDecide(t, hs.URL, `{"formula":"(=> (= x y) (= (f x) (f y)))"}`,
		map[string]string{"X-Request-Id": "bad id with spaces\""})
	if resp.RequestID == "" || strings.Contains(resp.RequestID, " ") {
		t.Errorf("invalid header ID leaked into response: %q", resp.RequestID)
	}
	if got := hresp.Header.Get("X-Request-Id"); strings.Contains(got, " ") {
		t.Errorf("invalid header ID echoed: %q", got)
	}

	// Even a malformed request gets a correlated response.
	resp, hresp = postDecide(t, hs.URL, `{"formula":"((("}`,
		map[string]string{"X-Request-Id": "malformed-req"})
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed: HTTP %d", hresp.StatusCode)
	}
	if resp.RequestID != "malformed-req" || hresp.Header.Get("X-Request-Id") != "malformed-req" {
		t.Errorf("malformed response not correlated: body=%q header=%q",
			resp.RequestID, hresp.Header.Get("X-Request-Id"))
	}

	// The structured log saw each ID.
	logs := logMu.String()
	for _, id := range []string{"from-header", "from-body", "malformed-req"} {
		if !strings.Contains(logs, "req_id="+id) {
			t.Errorf("request log missing req_id=%s:\n%s", id, logs)
		}
	}

	// The flight recorder's request events carry the IDs too.
	evs := flight.Events()
	seen := map[string]bool{}
	for _, ev := range evs {
		seen[ev.ReqID] = true
	}
	for _, id := range []string{"from-header", "from-body"} {
		if !seen[id] {
			t.Errorf("flight recorder has no events for %s (events: %d)", id, len(evs))
		}
	}
}

// TestBatchCorrelation pins the batch sub-request ID contract: every item of
// a /v1/decide/batch request gets "<batch-id>#<index>" unless it names its
// own ID, and the derived IDs are echoed in the item responses and carried
// through the structured log and the flight recorder.
func TestBatchCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	logMu := &syncWriter{buf: &logBuf}
	flight := obs.NewFlightRecorder(256)
	s := server.New(server.Config{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(logMu, nil)),
		Flight:  flight,
	})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		hs.Close()
	})

	body := `{"items":[
		{"formula":"(=> (= x y) (= (f x) (f y)))"},
		{"formula":"((("},
		{"formula":"(=> (= a b) (= b a))","request_id":"item-own-id"}
	]}`
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/decide/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", "batch-7")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var bresp server.BatchResponse
	if err := json.NewDecoder(hresp.Body).Decode(&bresp); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}

	if bresp.RequestID != "batch-7" || hresp.Header.Get("X-Request-Id") != "batch-7" {
		t.Errorf("batch ID not echoed: body=%q header=%q",
			bresp.RequestID, hresp.Header.Get("X-Request-Id"))
	}
	if len(bresp.Responses) != 3 {
		t.Fatalf("got %d item responses, want 3", len(bresp.Responses))
	}
	wantIDs := []string{"batch-7#0", "batch-7#1", "item-own-id"}
	for i, want := range wantIDs {
		if got := bresp.Responses[i].RequestID; got != want {
			t.Errorf("item %d request_id %q, want %q", i, got, want)
		}
	}
	// The malformed middle item failed alone; its siblings decided.
	if bresp.Responses[0].Status != "valid" || bresp.Responses[2].Status != "valid" {
		t.Errorf("item statuses = %q, %q, want valid", bresp.Responses[0].Status, bresp.Responses[2].Status)
	}
	if bresp.Responses[1].Status != "malformed" {
		t.Errorf("malformed item status %q", bresp.Responses[1].Status)
	}

	// Each sub-request ID reached the structured log...
	logs := logMu.String()
	for _, id := range wantIDs {
		if !strings.Contains(logs, "req_id="+id) {
			t.Errorf("request log missing req_id=%s:\n%s", id, logs)
		}
	}
	// ...and the flight recorder (the malformed item records no request
	// events, so only the decided items are required here).
	seen := map[string]bool{}
	for _, ev := range flight.Events() {
		seen[ev.ReqID] = true
	}
	for _, id := range []string{"batch-7#0", "item-own-id"} {
		if !seen[id] {
			t.Errorf("flight recorder has no events for %s", id)
		}
	}

	// A rejected batch leaves the way a rejected /decide does: its ID in
	// header and body, a log record and a flight event.
	for _, tc := range []struct{ id, body string }{
		{"bad-batch", `{not json`},
		{"empty-batch", `{"items":[]}`},
	} {
		hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/decide/batch", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Request-Id", tc.id)
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		err = json.NewDecoder(hresp.Body).Decode(&resp)
		hresp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.id, err)
		}
		if hresp.StatusCode != http.StatusBadRequest || resp.Status != "malformed" {
			t.Errorf("%s: HTTP %d status %q, want 400 malformed", tc.id, hresp.StatusCode, resp.Status)
		}
		if resp.RequestID != tc.id || hresp.Header.Get("X-Request-Id") != tc.id {
			t.Errorf("%s: rejection not correlated: body=%q header=%q",
				tc.id, resp.RequestID, hresp.Header.Get("X-Request-Id"))
		}
	}
	logs = logMu.String()
	seen = map[string]bool{}
	for _, ev := range flight.Events() {
		seen[ev.ReqID] = true
	}
	for _, id := range []string{"bad-batch", "empty-batch"} {
		if !strings.Contains(logs, "req_id="+id) {
			t.Errorf("request log missing req_id=%s:\n%s", id, logs)
		}
		if !seen[id] {
			t.Errorf("flight recorder has no events for %s", id)
		}
	}
}

// syncWriter is a mutex-guarded bytes.Buffer for concurrent slog output.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}
