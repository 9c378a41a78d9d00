// Package client is the retrying HTTP client for the sufserved decision
// service (internal/server): it posts Request JSON to /decide and retries
// load-shedding 503s with jittered exponential backoff, honoring the
// server's Retry-After. The soak harness and sufdecide -remote are built on
// it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/server"
)

// Client talks to one sufserved base URL. The zero value is not usable;
// create with New. A Client is safe for concurrent use.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (New sets a default with sane timeouts).
	HTTP *http.Client
	// MaxAttempts bounds tries per Decide call, first attempt included
	// (New sets 5). Only shed 503s and transport errors are retried;
	// malformed 400s and completed decisions are final on the first try.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (New sets 50ms); MaxBackoff
	// caps the computed backoff (New sets 2s). The server's Retry-After,
	// when present, is a floor: the client sleeps at least that long, plus a
	// jittered margin, so a cohort of shed clients does not retry in
	// lockstep and re-stampede the queue. MaxBackoff never cuts a wait below
	// the server's Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxResponseBytes bounds how much of a response body is read (New sets
	// 64 MiB). A backend that streams more than this — malformed, hostile, or
	// mid-failure garbage — yields a *BodyError with Truncated set instead of
	// an unbounded read: a misbehaving backend must never OOM its caller.
	MaxResponseBytes int64

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Client for baseURL with the default retry policy.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:          baseURL,
		HTTP:             &http.Client{Timeout: 5 * time.Minute},
		MaxAttempts:      5,
		BaseBackoff:      50 * time.Millisecond,
		MaxBackoff:       2 * time.Second,
		MaxResponseBytes: 64 << 20,
		rng:              rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// BodyError is the typed error for an unusable response body. Truncated
// distinguishes the two failure shapes a caller wants to treat differently:
// a body that blew the MaxResponseBytes cap (the backend streamed more than
// any valid response could be — hostile or wedged mid-crash) versus bytes
// that arrived whole but did not decode as a Response (the connection died
// mid-body, or the peer is not a sufserved at all). The router counts both
// as backend failures but reports them distinctly.
type BodyError struct {
	// Truncated: the body exceeded the read cap and was cut off.
	Truncated bool
	// HTTPStatus is the transport status the broken body arrived under.
	HTTPStatus int
	// Err is the underlying decode error (nil when Truncated).
	Err error
}

func (e *BodyError) Error() string {
	if e.Truncated {
		return fmt.Sprintf("client: response body exceeds read cap (HTTP %d)", e.HTTPStatus)
	}
	return fmt.Sprintf("client: decode response (HTTP %d): %v", e.HTTPStatus, e.Err)
}

func (e *BodyError) Unwrap() error { return e.Err }

// RetryError is returned when every attempt was shed: the last shed response
// and the attempt count.
type RetryError struct {
	Attempts int
	Last     *server.Response
}

func (e *RetryError) Error() string {
	reason := "unavailable"
	if e.Last != nil {
		reason = e.Last.ShedReason
	}
	return fmt.Sprintf("client: shed after %d attempts (%s)", e.Attempts, reason)
}

// jitter returns a uniformly random duration in [d/2, d), so synchronized
// clients spread their retries instead of re-stampeding the server.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// retryWait computes one retry sleep from the current exponential backoff
// and the server's Retry-After. The computed backoff is jittered and capped
// by MaxBackoff as before. Retry-After is a floor, not a schedule: every
// shed client got the same value, so sleeping it exactly puts the whole
// cohort back on the doorstep in the same instant. The wait is therefore at
// least Retry-After plus a jittered margin of up to half of it, and
// MaxBackoff never trims it below the server's floor.
func (c *Client) retryWait(backoff, retryAfter time.Duration) time.Duration {
	wait := c.jitter(backoff)
	if c.MaxBackoff > 0 && wait > c.MaxBackoff {
		wait = c.MaxBackoff
	}
	if retryAfter <= 0 {
		return wait
	}
	margin := retryAfter / 2
	if margin < 10*time.Millisecond {
		margin = 10 * time.Millisecond
	}
	if c.MaxBackoff > 0 && margin > c.MaxBackoff {
		margin = c.MaxBackoff
	}
	if floored := retryAfter + c.jitter(margin); floored > wait {
		wait = floored
	}
	return wait
}

// Decide posts req and returns the decoded response. Shed 503s and transport
// errors are retried with jittered exponential backoff honoring Retry-After;
// any decision response (any status) and any 4xx/5xx with a decodable body
// is returned as-is with a nil error.
func (c *Client) Decide(ctx context.Context, req *server.Request) (*server.Response, error) {
	// Mint the correlation ID at the client edge so retried attempts of one
	// logical request share it and the caller can grep for it afterwards.
	if req.RequestID == "" {
		req.RequestID = obs.NewRequestID()
	}
	// Direct mode is the trace root: mint the trace and a client root span so
	// the response telemetry comes back as a client-rooted fleet trace. The
	// root is minted once and shared by every retry attempt, like the request
	// ID. A caller that already carries a trace (or wants none) is left alone.
	var traceID, rootSpan string
	if req.Traceparent == "" && req.WantTelemetry {
		traceID = obs.NewTraceID()
		rootSpan = obs.NewSpanID()
		req.Traceparent = obs.FormatTraceparent(traceID, rootSpan)
	}
	start := time.Now()
	body, err := encode(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	backoff := c.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 5
	}
	var last *server.Response
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, retryAfter, err := c.post(ctx, body, req.RequestID, req.Traceparent)
		if err == nil && (resp.HTTPStatus != http.StatusServiceUnavailable) {
			resp.ClientAttempts = attempt
			mergeClientTrace(resp, traceID, rootSpan, time.Since(start))
			return resp, nil
		}
		if err != nil {
			lastErr = err
		} else {
			last, lastErr = resp, nil
		}
		if attempt >= maxAttempts {
			break
		}
		if err := sleepCtx(ctx, c.retryWait(backoff, retryAfter)); err != nil {
			return nil, err
		}
		backoff *= 2
		if c.MaxBackoff > 0 && backoff > c.MaxBackoff {
			backoff = c.MaxBackoff
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, &RetryError{Attempts: maxAttempts, Last: last}
}

// sleepCtx sleeps for d or until ctx is done, whichever is first. Unlike a
// bare time.After select, the timer is stopped on the cancellation path, so
// a cancelled backoff does not leave a multi-second timer pinned in the
// runtime's heap (a router failing over across many backends would otherwise
// accumulate them).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// encode is json.Marshal without HTML escaping: a formula's <, > and &
// travel as themselves instead of as \u003c, \u003e and \u0026, so the
// receiving decoder copies the formula string out of the body rather than
// unquoting it into a fresh buffer first.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecideOnce performs exactly one attempt: no shed retries, no backoff. It
// returns the decoded response (any HTTP status) together with the server's
// Retry-After, so a caller running its own failover policy — the router —
// can aggregate backpressure across backends instead of sleeping on one.
func (c *Client) DecideOnce(ctx context.Context, req *server.Request) (*server.Response, time.Duration, error) {
	if req.RequestID == "" {
		req.RequestID = obs.NewRequestID()
	}
	body, err := encode(req)
	if err != nil {
		return nil, 0, fmt.Errorf("client: encode request: %w", err)
	}
	resp, retryAfter, err := c.post(ctx, body, req.RequestID, req.Traceparent)
	if err != nil {
		return nil, retryAfter, err
	}
	resp.ClientAttempts = 1
	return resp, retryAfter, nil
}

// mergeClientTrace rebases a backend snapshot into a client-rooted fleet
// trace: a "client" root span covering the whole round trip (retries
// included), with the backend's spans rebased and clamped inside it. No-op
// unless Decide minted the trace root and the response carries telemetry.
func mergeClientTrace(resp *server.Response, traceID, rootSpan string, elapsed time.Duration) {
	if traceID == "" || resp == nil || resp.Telemetry == nil {
		return
	}
	elapsedMS := float64(elapsed.Microseconds()) / 1e3
	root := obs.SpanRecord{Name: "client", StartMS: 0, DurMS: elapsedMS, SpanID: rootSpan}
	obs.TagSpanTier(&root, "client")
	merged := make([]obs.SpanRecord, 0, len(resp.Telemetry.Spans)+1)
	merged = append(merged, root)
	merged = append(merged, obs.RebaseSpans(resp.Telemetry.Spans, 0, elapsedMS, "backend")...)
	resp.Telemetry.Spans = merged
	resp.Telemetry.TraceID = traceID
}

// post performs one attempt. The response's HTTPStatus field is filled from
// the transport so callers (and the retry loop) see the status without the
// header.
func (c *Client) post(ctx context.Context, body []byte, reqID, traceparent string) (*server.Response, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/decide", bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("client: build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		hreq.Header.Set("X-Request-Id", reqID)
	}
	if traceparent != "" {
		hreq.Header.Set(obs.TraceparentHeader, traceparent)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	maxBody := c.MaxResponseBytes
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	// Read one byte past the cap: exactly-at-cap bodies are legal, anything
	// beyond proves the backend is streaming garbage and is reported as a
	// typed truncation, distinct from a decode failure of complete bytes.
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxBody+1))
	if err != nil {
		return nil, 0, fmt.Errorf("client: read response: %w", err)
	}
	if int64(len(data)) > maxBody {
		return nil, 0, &BodyError{Truncated: true, HTTPStatus: hresp.StatusCode}
	}
	var resp server.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, 0, &BodyError{HTTPStatus: hresp.StatusCode, Err: err}
	}
	resp.HTTPStatus = hresp.StatusCode
	var retryAfter time.Duration
	if s := hresp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.RetryAfterMS > 0 {
		// The JSON body carries the precise estimate; the header is rounded
		// up to whole seconds.
		retryAfter = time.Duration(resp.RetryAfterMS) * time.Millisecond
	}
	return &resp, retryAfter, nil
}

// Probe performs one GET /readyz round trip: nil when the server answered
// 200, an error otherwise (transport failure or a non-200 such as a draining
// 503). This is the active health-check primitive the router's prober is
// built on — one attempt, no polling, promptly cancellable via ctx.
func (c *Client) Probe(ctx context.Context) error {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: probe: %w", err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: probe: HTTP %d", resp.StatusCode)
	}
	return nil
}

// Ready polls GET /readyz until it returns 200, ctx expires, or the server
// answers 503 past the deadline — for process supervisors and tests that
// need to wait for a fresh server.
func (c *Client) Ready(ctx context.Context) error {
	for {
		err := c.Probe(ctx)
		if err == nil {
			return nil
		}
		if serr := sleepCtx(ctx, 20*time.Millisecond); serr != nil {
			return fmt.Errorf("client: not ready: %w", err)
		}
	}
}

// DecideBatch posts the items to /v1/decide/batch and returns per-item
// responses in input order. Shed 503s (the whole batch rejected at the door)
// and transport errors are retried with the same backoff policy as Decide;
// per-item sheds inside an accepted batch are returned as-is for the caller
// to inspect.
func (c *Client) DecideBatch(ctx context.Context, reqs []*server.Request) ([]*server.Response, error) {
	breq := server.BatchRequest{
		Items:     make([]server.Request, len(reqs)),
		RequestID: obs.NewRequestID(),
	}
	for i, r := range reqs {
		breq.Items[i] = *r
	}
	body, err := encode(&breq)
	if err != nil {
		return nil, fmt.Errorf("client: encode batch: %w", err)
	}
	backoff := c.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 5
	}
	var last *server.Response
	var lastErr error
	for attempt := 1; ; attempt++ {
		resps, shed, retryAfter, err := c.postBatch(ctx, body, breq.RequestID)
		if err == nil && shed == nil {
			return resps, nil
		}
		if err != nil {
			lastErr = err
		} else {
			last, lastErr = shed, nil
		}
		if attempt >= maxAttempts {
			break
		}
		if err := sleepCtx(ctx, c.retryWait(backoff, retryAfter)); err != nil {
			return nil, err
		}
		backoff *= 2
		if c.MaxBackoff > 0 && backoff > c.MaxBackoff {
			backoff = c.MaxBackoff
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, &RetryError{Attempts: maxAttempts, Last: last}
}

// postBatch performs one batch attempt. A 503 at the batch level decodes as
// a single shed Response (returned in shed); an accepted batch decodes as a
// BatchResponse.
func (c *Client) postBatch(ctx context.Context, body []byte, reqID string) ([]*server.Response, *server.Response, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/decide/batch", bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("client: build batch request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		hreq.Header.Set("X-Request-Id", reqID)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hresp, err := hc.Do(hreq)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("client: %w", err)
	}
	defer hresp.Body.Close()
	maxBody := c.MaxResponseBytes
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxBody+1))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("client: read batch response: %w", err)
	}
	if int64(len(data)) > maxBody {
		return nil, nil, 0, &BodyError{Truncated: true, HTTPStatus: hresp.StatusCode}
	}
	var retryAfter time.Duration
	if s := hresp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	if hresp.StatusCode != http.StatusOK {
		// Batch-level rejection (shed or malformed): a single Response body.
		var shed server.Response
		if err := json.Unmarshal(data, &shed); err != nil {
			return nil, nil, retryAfter, &BodyError{HTTPStatus: hresp.StatusCode, Err: err}
		}
		shed.HTTPStatus = hresp.StatusCode
		if shed.RetryAfterMS > 0 {
			retryAfter = time.Duration(shed.RetryAfterMS) * time.Millisecond
		}
		if hresp.StatusCode == http.StatusServiceUnavailable {
			return nil, &shed, retryAfter, nil
		}
		return nil, nil, retryAfter, fmt.Errorf("client: batch rejected (HTTP %d): %s", hresp.StatusCode, shed.Error)
	}
	var bresp server.BatchResponse
	if err := json.Unmarshal(data, &bresp); err != nil {
		return nil, nil, retryAfter, &BodyError{HTTPStatus: hresp.StatusCode, Err: err}
	}
	return bresp.Responses, nil, retryAfter, nil
}
