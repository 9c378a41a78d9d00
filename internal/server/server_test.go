package server_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// congruence is a small valid formula; ordering a small invalid one.
const (
	congruence = "(=> (= x y) (= (f x) (f y)))"
	ordering   = "(=> (< x y) (< y x))"
	// chain is valid and produces a non-trivial CNF (several separation
	// predicates over one class), so clause budgets can actually blow.
	chain = "(=> (and (< a b) (< b c) (< c d) (< d e)) (< a e))"
)

// newTestServer wires a Server to an httptest transport and returns it with
// a retrying client. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	hs := httptest.NewServer(s.Handler())
	c := client.New(hs.URL)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return s, c
}

// decide runs one request and fails the test on a transport/retry error.
// Safe to call from helper goroutines (uses Errorf, not Fatalf) — check the
// returned response for nil.
func decide(t *testing.T, c *client.Client, req *server.Request) *server.Response {
	t.Helper()
	resp, err := c.Decide(context.Background(), req)
	if err != nil {
		t.Errorf("decide: %v", err)
		return nil
	}
	return resp
}

func TestDecideBasic(t *testing.T) {
	s, c := newTestServer(t, server.Config{Workers: 2})

	if resp := decide(t, c, &server.Request{Formula: congruence}); resp == nil || resp.Status != "valid" {
		t.Fatalf("congruence: got %+v want valid", resp)
	}
	resp := decide(t, c, &server.Request{Formula: ordering, WantModel: true})
	if resp == nil || resp.Status != "invalid" {
		t.Fatalf("ordering: got %+v want invalid", resp)
	}
	if len(resp.ModelConsts) == 0 {
		t.Errorf("ordering: want a model, got none")
	}
	if resp.Stats == nil || resp.Stats.Nodes == 0 {
		t.Errorf("ordering: want stats, got %+v", resp.Stats)
	}

	// congruence was decided above, so this is a cache hit: the telemetry is
	// the synthesized cache-hit snapshot (request span + cache span), not a
	// solve's.
	resp = decide(t, c, &server.Request{Formula: congruence, WantTelemetry: true})
	if resp == nil || resp.Telemetry == nil {
		t.Fatalf("want telemetry snapshot, got %+v", resp)
	}
	if resp.Telemetry.Status != "valid" {
		t.Errorf("telemetry status: got %q want valid", resp.Telemetry.Status)
	}
	if !resp.Cached {
		t.Errorf("repeat formula with want_telemetry not cache-served")
	}
	// client.Decide merged the snapshot into a client-rooted fleet trace:
	// the client root span first, then the backend's request/cache spans.
	if len(resp.Telemetry.Spans) < 3 || resp.Telemetry.Spans[0].Name != "client" ||
		resp.Telemetry.Spans[1].Name != "request" || resp.Telemetry.Spans[2].Name != "cache" {
		t.Errorf("cache-hit snapshot spans: %+v", resp.Telemetry.Spans)
	}
	if resp.Telemetry.TraceID == "" {
		t.Errorf("merged cache-hit snapshot missing trace_id")
	}

	// A fresh solve still returns the pipeline's full snapshot.
	resp = decide(t, c, &server.Request{Formula: chain, WantTelemetry: true})
	if resp == nil || resp.Telemetry == nil || resp.Telemetry.Status != "valid" || resp.Cached {
		t.Fatalf("fresh want_telemetry solve: got %+v", resp)
	}
	if resp.Telemetry.Pipeline.SUFNodes == 0 {
		t.Errorf("fresh solve snapshot missing pipeline stats")
	}

	if got := s.Probe().Counters(); got.Admitted != 3 || got.Completed != 3 {
		t.Errorf("counters: %+v", got)
	}
}

func TestDecideSMT2(t *testing.T) {
	_, c := newTestServer(t, server.Config{})
	unsat := `(declare-const x Int)(declare-const y Int)(assert (< x y))(assert (< y x))(check-sat)`
	if resp := decide(t, c, &server.Request{Formula: unsat, SMT2: true}); resp == nil || resp.Status != "valid" {
		// unsat assertions ⟺ the negation is valid.
		t.Errorf("smt2 unsat: got %+v want valid", resp)
	}
	sat := `(declare-const x Int)(declare-const y Int)(assert (< x y))(check-sat)`
	resp := decide(t, c, &server.Request{Formula: sat, SMT2: true, WantModel: true})
	if resp == nil || resp.Status != "invalid" {
		t.Fatalf("smt2 sat: got %+v want invalid", resp)
	}
	if len(resp.ModelConsts) == 0 {
		t.Errorf("smt2 sat: want a model")
	}
}

func TestMalformedRequests(t *testing.T) {
	s, c := newTestServer(t, server.Config{MaxRequestBytes: 512})

	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"formula":`},
		{"missing formula", `{}`},
		{"bad method", `{"formula":"(= x y)","method":"quantum"}`},
		{"bad formula", `{"formula":"((("}`},
		{"bad smt2", `{"formula":"(assert)","smt2":true}`},
		{"oversized", `{"formula":"` + strings.Repeat("x", 600) + `"}`},
		// Offset numerals summing past suf.MaxNumeral: each unit would be a
		// succ/pred node.
		{"numeral flood", `{"formula":"(and (= a1 (+ b1 65536)) (= a2 (+ b2 65536)) (= a3 (+ b3 65536)) (= a4 (+ b4 65536)))"}`},
		// A distinct over 182 arguments expands into 16,471 pairs, past
		// smtlib.MaxDistinctPairs.
		{"distinct flood", `{"formula":"(declare-const x Int)(assert (distinct` + strings.Repeat(" x", 182) + `))","smt2":true}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(c.BaseURL+"/decide", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got HTTP %d want 400", tc.name, resp.StatusCode)
		}
	}
	if got := s.Probe().Counters().Malformed; got != int64(len(cases)) {
		t.Errorf("malformed counter: got %d want %d", got, len(cases))
	}
}

// TestShedQueueFull floods a 1-worker, 2-slot server with held requests and
// checks the excess is rejected with 503 + Retry-After instead of queuing.
func TestShedQueueFull(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	hook := func(stage string) error {
		if stage == server.StageExec {
			<-block // hold every executing request until released
		}
		return nil
	}
	// NoCache: the flood is one identical formula on purpose; with the
	// verdict cache on, duplicates would single-flight onto the held leader
	// instead of filling the queue, which is the behavior under test here.
	s, c := newTestServer(t, server.Config{Workers: 1, MaxQueue: 2, Hook: hook, DegradeDepth: -1, NoCache: true})
	defer once.Do(func() { close(block) })

	const n = 10
	codes := make(chan int, n)
	missingRetryAfter := make(chan bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(c.BaseURL+"/decide", "application/json",
				strings.NewReader(`{"formula":"`+congruence+`","timeout_ms":30000}`))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			codes <- resp.StatusCode
			if resp.StatusCode == http.StatusServiceUnavailable {
				missingRetryAfter <- resp.Header.Get("Retry-After") == ""
			}
		}()
	}
	// Admission is immediate — wait until every request has a verdict: the
	// held worker plus at most MaxQueue admitted, the rest shed.
	waitUntil(t, 5*time.Second, func() bool {
		cs := s.Probe().Counters()
		return cs.Admitted+cs.ShedQueueFull+cs.ShedDeadline == n
	})
	admitted := s.Probe().Counters().Admitted
	if admitted < 1 || admitted > 3 {
		t.Errorf("admitted %d requests; want 1..3 (1 executing + up to 2 queued)", admitted)
	}
	once.Do(func() { close(block) })
	wg.Wait()
	close(codes)
	close(missingRetryAfter)

	shed, ok := 0, 0
	for code := range codes {
		switch code {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusOK:
			ok++
		default:
			t.Errorf("unexpected HTTP %d", code)
		}
	}
	if int64(ok) != admitted || int64(shed) != n-admitted {
		t.Errorf("got %d ok, %d shed; want %d ok, %d shed", ok, shed, admitted, n-admitted)
	}
	if shed < n-3 {
		t.Errorf("only %d requests shed; want >= %d", shed, n-3)
	}
	for missing := range missingRetryAfter {
		if missing {
			t.Errorf("shed response missing Retry-After header")
		}
	}
}

// TestShedDeadlineInQueue checks a request whose deadline expires while
// queued is shed at dequeue rather than solved to no purpose.
func TestShedDeadlineInQueue(t *testing.T) {
	release := make(chan struct{})
	first := make(chan struct{})
	var exec atomic.Int64
	hook := func(stage string) error {
		if stage == server.StageExec && exec.Add(1) == 1 {
			close(first)
			<-release
		}
		return nil
	}
	s, c := newTestServer(t, server.Config{Workers: 1, MaxQueue: 4, Hook: hook, DegradeDepth: -1, NoCache: true})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Long deadline: this one holds the only worker.
		decide(t, c, &server.Request{Formula: congruence, TimeoutMS: 30000})
	}()
	<-first

	// Short deadline: expires while the worker is held.
	cc := client.New(c.BaseURL)
	cc.MaxAttempts = 1
	errCh := make(chan error, 1)
	go func() {
		_, err := cc.Decide(context.Background(), &server.Request{Formula: congruence, TimeoutMS: 80})
		errCh <- err
	}()
	// Let the short deadline lapse in the queue, then free the worker so it
	// reaches — and sheds — the expired request.
	time.Sleep(150 * time.Millisecond)
	close(release)

	err := <-errCh
	var re *client.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("want RetryError, got %v", err)
	}
	if re.Last.ShedReason != server.ShedDeadline {
		t.Errorf("shed reason: got %q want %q", re.Last.ShedReason, server.ShedDeadline)
	}
	if re.Last.RetryAfterMS <= 0 {
		t.Errorf("shed response retry_after_ms: got %d want > 0", re.Last.RetryAfterMS)
	}
	wg.Wait()
	if got := s.Probe().Counters().ShedDeadline; got < 1 {
		t.Errorf("shed_deadline counter: got %d want >= 1", got)
	}
}

// TestDegradationLadder checks a blown clause budget on the eager path is
// retried once on the lazy path and answered definitively.
func TestDegradationLadder(t *testing.T) {
	// NoCache: the second request expects resource-out for the same formula
	// the first one answered — a cached verdict would (correctly, but
	// unhelpfully for this test) answer it.
	s, c := newTestServer(t, server.Config{Workers: 1, NoCache: true})

	resp := decide(t, c, &server.Request{Formula: chain, MaxCNFClauses: 1, TimeoutMS: 10000})
	if resp == nil || resp.Status != "valid" {
		t.Fatalf("ladder: got %+v want valid", resp)
	}
	if !resp.Degraded || resp.DegradedReason != "resource-out" || resp.Attempts != 2 {
		t.Errorf("ladder: degraded=%v reason=%q attempts=%d; want a resource-out retry",
			resp.Degraded, resp.DegradedReason, resp.Attempts)
	}
	if resp.Method != "lazy" {
		t.Errorf("ladder: method %q want lazy", resp.Method)
	}
	if got := s.Probe().Counters().Degraded; got != 1 {
		t.Errorf("degraded counter: got %d want 1", got)
	}

	// With the ladder disabled per request, the budget is reported as-is.
	resp = decide(t, c, &server.Request{Formula: chain, MaxCNFClauses: 1, NoDegrade: true})
	if resp == nil || resp.Status != "resource-out" {
		t.Errorf("no-degrade: got %+v want resource-out", resp)
	}
}

// TestSaturationDegrade checks that at saturation (deep queue at dequeue)
// eager requests are routed straight to the lazy path.
func TestSaturationDegrade(t *testing.T) {
	block := make(chan struct{})
	first := make(chan struct{})
	var exec atomic.Int64
	hook := func(stage string) error {
		if stage == server.StageExec && exec.Add(1) == 1 {
			close(first)
			<-block
		}
		return nil
	}
	s, c := newTestServer(t, server.Config{Workers: 1, MaxQueue: 8, DegradeDepth: 1, Hook: hook, NoCache: true})

	results := make(chan *server.Response, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results <- decide(t, c, &server.Request{Formula: congruence, TimeoutMS: 30000})
	}()
	<-first
	// Pile more requests behind the held worker so depth ≥ 1 at dequeue.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- decide(t, c, &server.Request{Formula: congruence, TimeoutMS: 30000})
		}()
	}
	waitUntil(t, 5*time.Second, func() bool { return s.QueueLen() >= 2 })
	close(block)
	wg.Wait()
	close(results)

	saturated := 0
	for resp := range results {
		if resp == nil {
			continue
		}
		if resp.Status != "valid" {
			t.Errorf("got %q (err %q) want valid", resp.Status, resp.Error)
		}
		if resp.Degraded && resp.DegradedReason == "saturation" {
			saturated++
			if resp.Method != "lazy" {
				t.Errorf("saturated request answered by %q, want lazy", resp.Method)
			}
		}
	}
	if saturated == 0 {
		t.Error("no request was saturation-degraded")
	}
}

// TestPanicIsolation checks a panic anywhere in a request is converted into
// a structured 500 carrying the telemetry snapshot, and that the server
// keeps serving afterwards.
func TestPanicIsolation(t *testing.T) {
	inj := faultinject.New(server.StageExec, faultinject.Panic).EveryNth(2)
	s, c := newTestServer(t, server.Config{Workers: 1, Hook: inj.Stage, NoCache: true})

	ok := decide(t, c, &server.Request{Formula: congruence})
	if ok == nil || ok.Status != "valid" {
		t.Fatalf("first request: got %+v want valid", ok)
	}
	crash := decide(t, c, &server.Request{Formula: congruence})
	if crash == nil || crash.HTTPStatus != http.StatusInternalServerError || crash.Status != "error" {
		t.Fatalf("panic request: got %+v; want HTTP 500 status error", crash)
	}
	if !strings.Contains(crash.Error, "panic") {
		t.Errorf("panic request error %q does not mention panic", crash.Error)
	}
	if crash.Telemetry == nil {
		t.Errorf("panic 500 missing telemetry snapshot")
	}
	after := decide(t, c, &server.Request{Formula: ordering})
	if after == nil || after.Status != "invalid" {
		t.Errorf("server dead after panic: got %+v want invalid", after)
	}
	if got := s.Probe().Counters().Panics; got != 1 {
		t.Errorf("panics counter: got %d want 1", got)
	}

	// A panic deep inside the decision pipeline is contained the same way.
	inj2 := faultinject.New("sat", faultinject.Panic)
	_, c2 := newTestServer(t, server.Config{Workers: 1, Hook: inj2.Stage, NoCache: true})
	crash = decide(t, c2, &server.Request{Formula: congruence})
	if crash == nil || crash.HTTPStatus != http.StatusInternalServerError || !strings.Contains(crash.Error, "panic") {
		t.Errorf("pipeline panic: got %+v; want contained 500", crash)
	}
}

// TestGracefulDrain checks Shutdown finishes admitted requests, sheds new
// ones, flips readiness, and leaks nothing.
func TestGracefulDrain(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		release := make(chan struct{})
		started := make(chan struct{}, 8)
		hook := func(stage string) error {
			if stage == server.StageExec {
				started <- struct{}{}
				<-release
			}
			return nil
		}
		// NoCache: all four requests are the same formula; the drain test needs
		// each of them admitted, not collapsed onto one single-flight leader.
		s := server.New(server.Config{Workers: 2, MaxQueue: 8, Hook: hook, DegradeDepth: -1, NoCache: true})
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		c := client.New(hs.URL)

		results := make(chan *server.Response, 4)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results <- decide(t, c, &server.Request{Formula: congruence, TimeoutMS: 30000})
			}()
		}
		<-started
		<-started // both workers busy; the remaining two requests are queued
		waitUntil(t, 5*time.Second, func() bool {
			return s.Probe().Counters().Admitted == 4
		})

		// Begin the drain concurrently; admitted requests must still finish.
		shutdownDone := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownDone <- s.Shutdown(ctx)
		}()
		waitUntil(t, 5*time.Second, s.Draining)

		// Readiness flips and new work is shed while draining.
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatalf("readyz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: HTTP %d want 503", resp.StatusCode)
		}
		cc := client.New(hs.URL)
		cc.MaxAttempts = 1
		_, err = cc.Decide(context.Background(), &server.Request{Formula: congruence})
		var re *client.RetryError
		if !errors.As(err, &re) || re.Last.ShedReason != server.ShedDraining {
			t.Errorf("decide while draining: err %v, want shed %q", err, server.ShedDraining)
		}

		close(release)
		wg.Wait()
		close(results)
		for resp := range results {
			if resp == nil || resp.Status != "valid" {
				t.Errorf("drained request: got %+v want valid", resp)
			}
		}
		if err := <-shutdownDone; err != nil {
			t.Errorf("shutdown: %v", err)
		}
		// Idempotent double shutdown.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// TestDrainDeadlineCancelsInFlight checks an expired drain context cancels
// in-flight solves, which then report Canceled rather than blocking the
// drain forever.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		block := make(chan struct{})
		entered := make(chan struct{})
		var once sync.Once
		hook := func(stage string) error {
			if stage == "sat" { // inside the decision pipeline, mid-request
				once.Do(func() { close(entered) })
				<-block
			}
			return nil
		}
		s := server.New(server.Config{Workers: 1, Hook: hook, DegradeDepth: -1})
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		c := client.New(hs.URL)

		respCh := make(chan *server.Response, 1)
		go func() {
			respCh <- decide(t, c, &server.Request{Formula: congruence, TimeoutMS: 60000})
		}()
		<-entered

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		shutdownErr := make(chan error, 1)
		go func() { shutdownErr <- s.Shutdown(ctx) }()

		// Release the pipeline only after the drain deadline fired: the next
		// checkpoint then observes the cancelled context.
		time.Sleep(250 * time.Millisecond)
		close(block)

		if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shutdown: got %v want deadline exceeded", err)
		}
		resp := <-respCh
		if resp != nil && resp.Status != "canceled" {
			t.Errorf("in-flight request after forced drain: got %q want canceled", resp.Status)
		}
	}, 5*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// acceptSignal reports each connection its listener accepts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestDrainClosesSilentConnections checks that a drain closes a connection
// that never sent a request. net/http counts such a connection as active for
// its first 5 s, so the 2 s shutdown grace alone would leave it open and
// report the deadline.
func TestDrainClosesSilentConnections(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := acceptSignal{Listener: inner, accepted: make(chan struct{}, 1)}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-ln.accepted

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("shutdown took %v, want the 2 s grace", d)
	}
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after drain: got %v, want EOF", err)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
