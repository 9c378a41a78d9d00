package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/router"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// TestFormulaTravelsVerbatim sends a formula with <, <= and => through the
// client to a router in front of a real backend (the router forwards through
// the same client) and records the body each tier receives: both must carry
// the formula's text as it is, not HTML-escaped, and the verdict and
// fingerprint must equal those a fresh backend gives the escaped body
// json.Marshal writes.
func TestFormulaTravelsVerbatim(t *testing.T) {
	const formula = "(=> (and (< x y) (< y z)) (<= x z))"
	var mu sync.Mutex
	bodies := map[string][]byte{}
	record := func(tier string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/decide" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Errorf("%s: read body: %v", tier, err)
				}
				mu.Lock()
				bodies[tier] = body
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	shutdown := func(stop func(context.Context) error) {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := stop(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}

	s := server.New(server.Config{})
	shutdown(s.Shutdown)
	backend := httptest.NewServer(record("backend", s.Handler()))
	t.Cleanup(backend.Close)
	rt, err := router.New(router.Config{Backends: []string{backend.URL}, HedgeDelay: -1,
		HealthInterval: time.Hour, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	shutdown(rt.Shutdown)
	front := httptest.NewServer(record("router", rt.Handler()))
	t.Cleanup(front.Close)

	got, err := client.New(front.URL).Decide(context.Background(), &server.Request{Formula: formula})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"router", "backend"} {
		mu.Lock()
		body := bodies[tier]
		mu.Unlock()
		if !bytes.Contains(body, []byte("(< x y)")) || bytes.Contains(body, []byte(`\u003c`)) {
			t.Errorf("%s received %s, want the formula unescaped", tier, body)
		}
	}

	escaped, err := json.Marshal(&server.Request{Formula: formula})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(escaped, []byte(`\u003c`)) {
		t.Fatalf("json.Marshal wrote %s, want < escaped", escaped)
	}
	ref := server.New(server.Config{})
	shutdown(ref.Shutdown)
	w := httptest.NewRecorder()
	ref.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(escaped)))
	var want server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &want); err != nil {
		t.Fatalf("escaped request: %v: %s", err, w.Body.String())
	}
	if got.Status != "valid" || got.Status != want.Status || got.Fingerprint == "" || got.Fingerprint != want.Fingerprint {
		t.Errorf("through router and backend: %s %s; escaped, straight to a backend: %s %s; want both valid with one fingerprint",
			got.Status, got.Fingerprint, want.Status, want.Fingerprint)
	}
}
