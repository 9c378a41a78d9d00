package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// echoBackend is a fake sufserved that records the correlation ID each
// /decide arrived with, in the X-Request-Id header and the body's
// request_id, and echoes the header's ID the way the real server does.
type echoBackend struct {
	srv *httptest.Server

	mu   sync.Mutex
	hdrs []string
	ids  []string
}

func newEchoBackend(t *testing.T) *echoBackend {
	t.Helper()
	e := &echoBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		var req server.Request
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck // a bad body records an empty ID
		hdr := r.Header.Get("X-Request-Id")
		e.mu.Lock()
		e.hdrs = append(e.hdrs, hdr)
		e.ids = append(e.ids, req.RequestID)
		e.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-Id", hdr)
		json.NewEncoder(w).Encode(&server.Response{Status: "valid", RequestID: hdr}) //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	e.srv = httptest.NewServer(mux)
	t.Cleanup(e.srv.Close)
	return e
}

// last returns the header and body IDs of the most recent /decide.
func (e *echoBackend) last() (hdr, id string, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.ids) == 0 {
		return "", "", 0
	}
	return e.hdrs[len(e.hdrs)-1], e.ids[len(e.ids)-1], len(e.ids)
}

// postRaw POSTs body to /decide with an optional X-Request-Id header and
// decodes the response.
func postRaw(t *testing.T, base, body, hdrID string) (*server.Response, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/decide", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if hdrID != "" {
		req.Header.Set("X-Request-Id", hdrID)
	}
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /decide: %v", err)
	}
	defer hresp.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &resp, hresp
}

// TestRouterRequestCorrelation pins the router's correlation-ID contract to
// the backend's: a valid X-Request-Id header wins, a valid body request_id
// is used when the header is missing or invalid, otherwise an ID is minted.
// The chosen ID is forwarded to the backend and echoed in the response body
// and header — on routed, malformed and shed responses alike — and an
// invalid header is never echoed.
func TestRouterRequestCorrelation(t *testing.T) {
	be := newEchoBackend(t)
	rt, srv, _ := newTestRouter(t, Config{Backends: []string{be.srv.URL}, HedgeDelay: -1})
	withID := func(id string) string {
		return `{"formula":"` + testFormula + `","request_id":"` + id + `"}`
	}

	routed := []struct {
		name, body, hdr, want string
	}{
		{"header wins", withID("from-body"), "from-header", "from-header"},
		{"body without header", withID("from-body"), "", "from-body"},
		{"body over invalid header", withID("good-body-id"), "bad id with spaces", "good-body-id"},
		{"minted", `{"formula":"` + testFormula + `"}`, "", ""},
		{"minted over invalid header and body", withID(`bad\"body id`), "bad id with spaces", ""},
	}
	for _, tc := range routed {
		resp, hresp := postRaw(t, srv.URL, tc.body, tc.hdr)
		if resp.Status != "valid" {
			t.Fatalf("%s: status %q", tc.name, resp.Status)
		}
		want := tc.want
		if want == "" {
			if !obs.ValidRequestID(resp.RequestID) {
				t.Errorf("%s: response request_id %q is not a minted ID", tc.name, resp.RequestID)
			}
			want = resp.RequestID
		}
		if resp.RequestID != want {
			t.Errorf("%s: response request_id %q, want %q", tc.name, resp.RequestID, want)
		}
		if got := hresp.Header.Get("X-Request-Id"); got != want {
			t.Errorf("%s: response header X-Request-Id %q, want %q", tc.name, got, want)
		}
		if hdr, id, _ := be.last(); hdr != want || id != want {
			t.Errorf("%s: backend received header %q body %q, want %q", tc.name, hdr, id, want)
		}
	}

	// Malformed requests never reach the backend but are still correlated:
	// a bad formula after decode, bad JSON before it.
	_, _, before := be.last()
	for _, tc := range []struct {
		name, body, hdr string
	}{
		{"bad formula", `{"formula":"((("}`, "malformed-req"},
		{"bad JSON", `{"formula":`, "malformed-req"},
		{"bad JSON, invalid header", `{"formula":`, "bad id with spaces"},
	} {
		resp, hresp := postRaw(t, srv.URL, tc.body, tc.hdr)
		if hresp.StatusCode != http.StatusBadRequest || resp.Status != "malformed" {
			t.Fatalf("%s: HTTP %d / %q, want 400/malformed", tc.name, hresp.StatusCode, resp.Status)
		}
		checkHeaderID(t, tc.name, tc.hdr, resp, hresp)
	}
	if _, _, after := be.last(); after != before {
		t.Errorf("malformed requests reached the backend (%d decides, want %d)", after, before)
	}

	// A draining router sheds before reading the body.
	rt.draining.Store(true)
	defer rt.draining.Store(false)
	for _, hdr := range []string{"drain-req", `evil"id with spaces`} {
		resp, hresp := postRaw(t, srv.URL, withID("from-body"), hdr)
		if hresp.StatusCode != http.StatusServiceUnavailable || resp.Status != "shed" {
			t.Fatalf("draining %q: HTTP %d / %q, want 503/shed", hdr, hresp.StatusCode, resp.Status)
		}
		checkHeaderID(t, "draining "+hdr, hdr, resp, hresp)
	}
}

// checkHeaderID checks a response whose request body supplied no ID, or was
// never read: it carries the header's ID when that is valid and a minted one
// otherwise, in both the body and the X-Request-Id header.
func checkHeaderID(t *testing.T, name, hdr string, resp *server.Response, hresp *http.Response) {
	t.Helper()
	got := hresp.Header.Get("X-Request-Id")
	if resp.RequestID != got {
		t.Errorf("%s: response request_id %q, header %q", name, resp.RequestID, got)
	}
	if obs.ValidRequestID(hdr) {
		if got != hdr {
			t.Errorf("%s: response ID %q, want the header's %q", name, got, hdr)
		}
	} else if !obs.ValidRequestID(got) {
		t.Errorf("%s: invalid header %q answered with ID %q, want a minted one", name, hdr, got)
	}
}
