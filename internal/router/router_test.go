package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// fakeBackend is a scriptable stand-in for sufserved: it answers /decide and
// /readyz according to its current mode and counts what it saw.
type fakeBackend struct {
	srv *httptest.Server

	mu    sync.Mutex
	mode  string // "ok", "hang", "shed", "error"
	delay time.Duration
	ready bool // /readyz answer

	decides  int
	canceled int // decide handlers whose request context was canceled
	readies  int // /readyz probes answered
}

func newFakeBackend(t *testing.T, mode string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{mode: mode, ready: true}
	mux := http.NewServeMux()
	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body like the real server: without this the net/http
		// server never starts its background read and a client disconnect
		// would not cancel r.Context().
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		f.mu.Lock()
		f.decides++
		mode, delay := f.mode, f.delay
		f.mu.Unlock()
		switch mode {
		case "hang":
			<-r.Context().Done()
			f.mu.Lock()
			f.canceled++
			f.mu.Unlock()
			return
		case "shed":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"status":"shed","shed_reason":"queue-full","retry_after_ms":250}`) //nolint:errcheck
			return
		case "error":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		if delay > 0 {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-r.Context().Done():
				f.mu.Lock()
				f.canceled++
				f.mu.Unlock()
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"valid"}`) //nolint:errcheck
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		ready := f.ready
		f.readies++
		f.mu.Unlock()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeBackend) url() string { return f.srv.URL }

func (f *fakeBackend) set(mode string, delay time.Duration) {
	f.mu.Lock()
	f.mode, f.delay = mode, delay
	f.mu.Unlock()
}

func (f *fakeBackend) setReady(ready bool) {
	f.mu.Lock()
	f.ready = ready
	f.mu.Unlock()
}

func (f *fakeBackend) counts() (decides, canceled int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.decides, f.canceled
}

func (f *fakeBackend) readyCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readies
}

// newTestRouter builds a router over the fakes with probing effectively off
// (1h cadence) unless cfg overrides it, and registers Shutdown as cleanup.
func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeBackend) (*Router, *httptest.Server, map[string]*fakeBackend) {
	t.Helper()
	byURL := make(map[string]*fakeBackend, len(fakes))
	for _, f := range fakes {
		cfg.Backends = append(cfg.Backends, f.url())
		byURL[f.url()] = f
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
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
	return rt, srv, byURL
}

const testFormula = "(=> (= x y) (= (f x) (f y)))"

func postDecide(t *testing.T, base string, req *server.Request) (*server.Response, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hresp, err := http.Post(base+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /decide: %v", err)
	}
	defer hresp.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &resp, hresp
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestRouterRoutesByFingerprint(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	_, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, a, b)

	var first string
	for i := 0; i < 5; i++ {
		resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
		if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
			t.Fatalf("status %d / %q", hresp.StatusCode, resp.Status)
		}
		who := hresp.Header.Get("X-Sufrouter-Backend")
		if who == "" {
			t.Fatal("no X-Sufrouter-Backend header")
		}
		if first == "" {
			first = who
		} else if who != first {
			t.Fatalf("same formula routed to %s then %s — fingerprint affinity broken", first, who)
		}
	}
}

func TestRouterMalformedRejectedAtRouter(t *testing.T) {
	a := newFakeBackend(t, "ok")
	_, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, a)

	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: "(=> (= x"})
	if hresp.StatusCode != http.StatusBadRequest || resp.Status != "malformed" {
		t.Fatalf("status %d / %q, want 400/malformed", hresp.StatusCode, resp.Status)
	}
	if d, _ := a.counts(); d != 0 {
		t.Fatalf("malformed request reached a backend (%d decides)", d)
	}
}

func TestRouterFailoverOnBackendError(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: -1}, a, b)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 3)
	byURL[order[0]].set("error", 0) // the home node cuts every connection

	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
		t.Fatalf("status %d / %q — failover did not produce an answer", hresp.StatusCode, resp.Status)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[1] {
		t.Fatalf("answer came from %s, want failover target %s", who, order[1])
	}
}

func mustFingerprint(t *testing.T) string {
	t.Helper()
	fp, err := Fingerprint(testFormula, false)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return fp
}

// TestRouterAllBackendsOpen: with every breaker open the router must answer
// an immediate 503 with a Retry-After — never hang, never cascade.
func TestRouterAllBackendsOpen(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, _ := newTestRouter(t, Config{
		HedgeDelay: -1,
		Breaker:    BreakerConfig{BaseCooldown: 10 * time.Second, MaxCooldown: 10 * time.Second},
	}, a, b)

	for _, name := range rt.Backends() {
		for i := 0; i < 3; i++ {
			rt.view.Load().members[name].br.ReportProbe(false)
		}
		if st, _ := rt.BackendState(name); st != BreakerOpen {
			t.Fatalf("backend %s state %v after 3 probe failures", name, st)
		}
	}

	start := time.Now()
	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("all-open request took %v — router must answer immediately", elapsed)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", hresp.StatusCode)
	}
	if resp.Status != "shed" || resp.ShedReason != ShedBackendsOpen {
		t.Fatalf("resp %q/%q, want shed/%s", resp.Status, resp.ShedReason, ShedBackendsOpen)
	}
	if hresp.Header.Get("Retry-After") == "" || resp.RetryAfterMS <= 0 {
		t.Fatalf("no Retry-After propagated (header=%q, ms=%d)",
			hresp.Header.Get("Retry-After"), resp.RetryAfterMS)
	}
	// No attempt may have reached a backend.
	if d, _ := a.counts(); d != 0 {
		t.Fatal("open breaker let a request through to backend a")
	}
	if d, _ := b.counts(); d != 0 {
		t.Fatal("open breaker let a request through to backend b")
	}
	// /readyz must also report the condition.
	r2, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	io.Copy(io.Discard, r2.Body) //nolint:errcheck
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d with every breaker open, want 503", r2.StatusCode)
	}
}

// TestRouterHedgePrimaryWins: the hedge fires, then the primary answers
// first — the hedged attempt's context must be observed canceled.
func TestRouterHedgePrimaryWins(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: 20 * time.Millisecond}, a, b)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 3)
	byURL[order[0]].set("ok", 150*time.Millisecond) // slow but answers
	byURL[order[1]].set("hang", 0)                  // the hedge target never answers

	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
		t.Fatalf("status %d / %q", hresp.StatusCode, resp.Status)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[0] {
		t.Fatalf("winner %s, want primary %s", who, order[0])
	}
	hd, _ := byURL[order[1]].counts()
	if hd != 1 {
		t.Fatalf("hedge target saw %d decides, want exactly 1", hd)
	}
	// The losing hedge must observe its context canceled promptly.
	waitFor(t, 2*time.Second, func() bool {
		_, c := byURL[order[1]].counts()
		return c == 1
	}, "hedged attempt's context was never canceled after the primary won")
}

// TestRouterHedgeWins: the primary hangs (a blackhole shape no error-driven
// failover can catch), the hedge answers — first answer wins and the primary
// is canceled.
func TestRouterHedgeWins(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: 20 * time.Millisecond}, a, b)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 3)
	byURL[order[0]].set("hang", 0)
	byURL[order[1]].set("ok", 0)

	start := time.Now()
	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula, TimeoutMS: 5000})
	if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
		t.Fatalf("status %d / %q", hresp.StatusCode, resp.Status)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[1] {
		t.Fatalf("winner %s, want hedge target %s", who, order[1])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged answer took %v — the hang leaked into the latency", elapsed)
	}
	waitFor(t, 2*time.Second, func() bool {
		_, c := byURL[order[0]].counts()
		return c == 1
	}, "hanging primary was never canceled after the hedge won")

	// The hedge win must be visible in the metrics.
	scr := scrapeRouter(t, srv.URL)
	if v, _ := scr.Value("sufrouter_hedges_total"); v < 1 {
		t.Fatalf("sufrouter_hedges_total = %v, want ≥1", v)
	}
	if v, _ := scr.Value("sufrouter_hedge_wins_total"); v < 1 {
		t.Fatalf("sufrouter_hedge_wins_total = %v, want ≥1", v)
	}
}

func scrapeRouter(t *testing.T, base string) *obs.PromScrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	scr, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	return scr
}

func TestRouterBackendShedsAggregate(t *testing.T) {
	a, b := newFakeBackend(t, "shed"), newFakeBackend(t, "shed")
	_, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, a, b)

	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", hresp.StatusCode)
	}
	if resp.Status != "shed" || resp.ShedReason != ShedBackendsShedding {
		t.Fatalf("resp %q/%q, want shed/%s", resp.Status, resp.ShedReason, ShedBackendsShedding)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Fatal("backend Retry-After was not aggregated upstream")
	}
}

// TestRouterFullNeverBlocks: a router at its in-flight cap answers 503
// immediately instead of queueing.
func TestRouterFullNeverBlocks(t *testing.T) {
	a := newFakeBackend(t, "hang")
	_, srv, _ := newTestRouter(t, Config{HedgeDelay: -1, MaxInFlight: 1}, a)

	// Occupy the single slot with a hanging request.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(&server.Request{Formula: testFormula, TimeoutMS: 30000})
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/decide", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if resp != nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 2*time.Second, func() bool {
		d, _ := a.counts()
		return d >= 1
	}, "first request never reached the backend")

	start := time.Now()
	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("over-cap request took %v — admission must never block", elapsed)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable || resp.ShedReason != ShedRouterFull {
		t.Fatalf("status %d reason %q, want 503/%s", hresp.StatusCode, resp.ShedReason, ShedRouterFull)
	}
	cancel()
	<-errc
}

// TestRouterProbeRecovery: an unready backend opens via active probes; when
// it comes back, the prober's successful trial closes the breaker again —
// without any live request paying for the discovery.
func TestRouterProbeRecovery(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	b.setReady(false)

	rt, _, _ := newTestRouter(t, Config{
		HedgeDelay:     -1,
		HealthInterval: 20 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
		Breaker:        BreakerConfig{BaseCooldown: 30 * time.Millisecond, MaxCooldown: 100 * time.Millisecond},
	}, a, b)

	waitFor(t, 5*time.Second, func() bool {
		st, _ := rt.BackendState(b.url())
		return st == BreakerOpen
	}, "probes never opened the unready backend's breaker")
	if st, _ := rt.BackendState(a.url()); st != BreakerClosed {
		t.Fatalf("healthy backend state %v, want closed", st)
	}

	b.setReady(true)
	waitFor(t, 5*time.Second, func() bool {
		st, _ := rt.BackendState(b.url())
		return st == BreakerClosed
	}, "recovered backend's breaker never closed")
}

// TestRouterObservability: the router mounts the shared observer, so its
// metrics history and profile store answer, and its scrape carries the
// capture counter.
func TestRouterObservability(t *testing.T) {
	_, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, newFakeBackend(t, "ok"))
	if resp, _ := postDecide(t, srv.URL, &server.Request{Formula: testFormula}); resp.Status != "valid" {
		t.Fatalf("status %q", resp.Status)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if body := get("/debug/history?family=sufrouter_requests_total"); !strings.Contains(body, `"sufrouter_requests_total"`) {
		t.Errorf("/debug/history lacks the requested family: %s", body)
	}
	var idx obs.ProfileIndex
	if err := json.Unmarshal([]byte(get("/debug/profiles")), &idx); err != nil {
		t.Errorf("/debug/profiles: %v", err)
	}
	if scrape := get("/metrics"); !strings.Contains(scrape, `sufrouter_profile_captures_total{result="captured"}`) {
		t.Errorf("scrape lacks sufrouter_profile_captures_total{result=\"captured\"}:\n%s", scrape)
	}
}

// TestRingKeyRepeatAllocs: the router keys a formula text it has keyed
// before from its memo, without a parse, so the ring key of a repeat costs
// the same few allocations for a 2,000-equation text as for a 4-equation
// one, and equals Fingerprint.
func TestRingKeyRepeatAllocs(t *testing.T) {
	rt, _, _ := newTestRouter(t, Config{}, newFakeBackend(t, "ok"))
	var allocs [2]float64
	for i, n := range []int{4, 2000} {
		var sb strings.Builder
		sb.WriteString("(and")
		for j := 0; j < n; j++ {
			fmt.Fprintf(&sb, " (= (f x%d) x%d)", j, j+1)
		}
		sb.WriteString(")")
		text := sb.String()
		want, err := Fingerprint(text, false)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if fp, err := rt.keys.Fingerprint(text, false); err != nil || fp != want {
				t.Fatalf("%d equations, pass %d: ring key %s (err %v), Fingerprint %s", n, pass, fp, err, want)
			}
		}
		allocs[i] = testing.AllocsPerRun(10, func() { rt.keys.Fingerprint(text, false) }) //nolint:errcheck
	}
	t.Logf("repeat ring key allocations: %.0f for 4 equations, %.0f for 2,000", allocs[0], allocs[1])
	if allocs[1] > allocs[0] || allocs[1] > 4 {
		t.Errorf("repeat ring key allocations: %.0f for 4 equations, %.0f for 2,000 (limit: no more, and at most 4)",
			allocs[0], allocs[1])
	}
}

// rawPost sends POST /decide over its own connection: with a Content-Length
// header of contentLength, or chunked when contentLength is negative, then
// the body bytes. When the body falls short of contentLength it then closes
// its write side, so the peer reads a truncated body. It returns the status
// code and the response body.
func rawPost(t *testing.T, base string, contentLength int, body string) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req strings.Builder
	req.WriteString("POST /decide HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nConnection: close\r\n")
	if contentLength < 0 {
		fmt.Fprintf(&req, "Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	} else {
		fmt.Fprintf(&req, "Content-Length: %d\r\n\r\n%s", contentLength, body)
	}
	if _, err := io.WriteString(conn, req.String()); err != nil {
		t.Fatal(err)
	}
	if contentLength > len(body) {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// TestRequestBodyLengths pins the answers of a real backend and of the
// router in front of it, both limited to 512 bytes, to /decide bodies of
// every shape: a known length is read at that length, an unknown one
// (chunked) as it arrives, and an oversize or truncated body is refused the
// same way either way.
func TestRequestBodyLengths(t *testing.T) {
	const limit = 512
	s := server.New(server.Config{MaxRequestBytes: limit})
	backend := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		backend.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	rt, err := New(Config{Backends: []string{backend.URL}, MaxRequestBytes: limit, HedgeDelay: -1,
		HealthInterval: time.Hour, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx) //nolint:errcheck
	})

	ok := `{"formula":"(= x x)"}`
	big := `{"formula":"(= x x)","request_id":"` + strings.Repeat("r", limit) + `"}`
	for _, tier := range []struct {
		name, base, tooLarge, truncated string
	}{
		{"backend", backend.URL, "request body too large", "read body: unexpected EOF"},
		{"router", front.URL, fmt.Sprintf("request body exceeds %d bytes", limit), "read request body: unexpected EOF"},
	} {
		for _, tc := range []struct {
			name          string
			contentLength int
			body          string
			code          int
			want          string
		}{
			{"known length", len(ok), ok, http.StatusOK, `"status":"valid"`},
			{"chunked", -1, ok, http.StatusOK, `"status":"valid"`},
			{"known length over the limit", len(big), big, http.StatusBadRequest, tier.tooLarge},
			{"chunked over the limit", -1, big, http.StatusBadRequest, tier.tooLarge},
			{"truncated", len(ok) + 10, ok, http.StatusBadRequest, tier.truncated},
		} {
			code, body := rawPost(t, tier.base, tc.contentLength, tc.body)
			if code != tc.code || !strings.Contains(body, tc.want) {
				t.Errorf("%s, %s: HTTP %d %s, want %d with %q", tier.name, tc.name, code, strings.TrimSpace(body), tc.code, tc.want)
			}
		}
	}
}
