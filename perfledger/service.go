package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// failedLatencyMS stands in for the latency of a request that got no verdict:
// the router's default deadline, longer than any answered request may take.
const failedLatencyMS = 10_000

// serviceSetups is how many fleets a service run sets up; the last one
// serves the run.
const serviceSetups = 5

// request is one /decide call of a service workload.
type request struct {
	base int // index of the population formula it spells
	body server.Request
}

// newRequest spells population formula base tagged with salt, in its
// original symbols; an invalid formula asks for its model.
func newRequest(pop []item, base, salt int) *request {
	it := pop[base]
	return &request{base: base, body: server.Request{Formula: tagged(it.Text, salt, 0), WantModel: !it.Valid}}
}

// outcome is one request's fate. Latency runs from due to done, so a late
// send counts; the router hop runs from sent to done.
type outcome struct {
	req             *request
	due, sent, done time.Time
	resp            *server.Response
	err             error
}

func (o *outcome) ok() bool {
	return o.err == nil && o.resp != nil && o.resp.HTTPStatus == http.StatusOK &&
		(o.resp.Status == "valid" || o.resp.Status == "invalid")
}

func (o *outcome) latencyMS() float64 {
	if !o.ok() {
		return failedLatencyMS
	}
	return float64(o.done.Sub(o.due).Nanoseconds()) / 1e6
}

// Salts at and above reservedSalt tag warm-up requests, so they never share
// a fingerprint with measured requests.
const reservedSalt = maxSalt - 1024

// workingSetCopies is how many tagged spellings of each population formula
// the repeat working set holds.
const workingSetCopies = 2

// stream deals a service workload's requests in a seed-determined order, in
// blocks that each hold every slot once, shuffled, so every seed sends the
// same mix. A fresh workload's slots are
// the population formulas, each request tagged with its own salt (a run
// never deals reservedSalt requests). A repeat workload's slots are its
// working set, slot s being formula s mod len(pop) tagged with wsSalts[s].
type stream struct {
	pop     []item
	repeat  bool
	slots   int
	wsSalts []int

	mu    sync.Mutex
	rng   *rand.Rand
	block []int
	n     int
}

func newStream(seed int64, pop []item, repeat bool) *stream {
	s := &stream{rng: rand.New(rand.NewSource(seed)), pop: pop, slots: len(pop), repeat: repeat}
	if repeat {
		s.slots = workingSetCopies * len(pop)
		s.wsSalts = s.rng.Perm(reservedSalt)[:s.slots]
	}
	return s
}

// workingSet is the repeat workload's cache content, one request per slot.
func (s *stream) workingSet() []*request {
	out := make([]*request, s.slots)
	for slot := range out {
		out[slot] = newRequest(s.pop, slot%len(s.pop), s.wsSalts[slot])
	}
	return out
}

// next deals the next request. Half the repeat requests are alpha-renamed
// spellings; they never ask for a model, which does not transfer across
// spellings and would send the request back to the solver.
func (s *stream) next() *request {
	s.mu.Lock()
	if len(s.block) == 0 {
		s.block = s.rng.Perm(s.slots)
	}
	slot := s.block[0]
	s.block = s.block[1:]
	n := s.n
	s.n++
	s.mu.Unlock()
	if !s.repeat {
		return newRequest(s.pop, slot, n%reservedSalt)
	}
	r := newRequest(s.pop, slot%len(s.pop), s.wsSalts[slot])
	if n%2 == 1 {
		r.body.Formula = tagged(s.pop[r.base].Text, s.wsSalts[slot], n)
		r.body.WantModel = false
	}
	return r
}

// loadClient returns a client for the fleet's router that holds at most
// conns keep-alive connections and makes exactly one attempt per request.
func loadClient(url string, conns int) *client.Client {
	c := client.New(url)
	c.HTTP = &http.Client{
		Timeout: 2 * failedLatencyMS * time.Millisecond,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
	return c
}

func send(ctx context.Context, c *client.Client, o *outcome) {
	body := o.req.body // DecideOnce stamps a request ID; keep the stream's copy clean
	o.sent = time.Now()
	o.resp, _, o.err = c.DecideOnce(ctx, &body)
	o.done = time.Now()
}

// sequential sends reqs one at a time (a closed loop with one caller).
func sequential(ctx context.Context, c *client.Client, reqs []*request) []*outcome {
	out := make([]*outcome, 0, len(reqs))
	for _, r := range reqs {
		o := &outcome{req: r, due: time.Now()}
		send(ctx, c, o)
		out = append(out, o)
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

// openLoop sends count requests at rate per second from senders goroutines:
// request k is due at start + k/rate. A sender claims the next ticket as soon
// as it is free, so when all are busy the next request goes out late, and
// its latency, timed from its due time, carries the delay.
func openLoop(ctx context.Context, c *client.Client, st *stream, rate float64, count, senders int) []*outcome {
	out := make([]*outcome, count)
	for k := range out {
		out[k] = &outcome{req: st.next()}
	}
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= count || ctx.Err() != nil {
					return
				}
				o := out[k]
				o.due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if wait := time.Until(o.due); wait > 0 {
					time.Sleep(wait)
				}
				send(ctx, c, o)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps senders requests in flight until d has passed.
func closedLoop(ctx context.Context, c *client.Client, st *stream, d time.Duration, senders int) []*outcome {
	var mu sync.Mutex
	var out []*outcome
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				o := &outcome{req: st.next(), due: time.Now()}
				send(ctx, c, o)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedRate is the completions per second of a closed loop's outcomes,
// from the first send to the last answer.
func closedRate(outs []*outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	t0, t1 := outs[0].sent, outs[0].done
	for _, o := range outs {
		if o.sent.Before(t0) {
			t0 = o.sent
		}
		if o.done.After(t1) {
			t1 = o.done
		}
	}
	return float64(len(outs)) / t1.Sub(t0).Seconds()
}

// tallyOutcomes checks every response against the known verdict: a
// want_model invalid verdict must carry the model.
func tallyOutcomes(r *result, pop []item, outs []*outcome) {
	for _, o := range outs {
		it := pop[o.req.base]
		switch {
		case o.err != nil, o.resp == nil, o.resp.HTTPStatus != http.StatusOK:
			r.tally(it.Valid, "failed", false)
		default:
			hasModel := len(o.resp.ModelConsts)+len(o.resp.ModelBools) > 0
			r.tally(it.Valid, o.resp.Status, !o.req.body.WantModel || hasModel)
		}
	}
}

// setUpFleet starts a fleet and sends it one warm-up request per family. It
// returns the fleet and the seconds from the first exec to the last warm-up
// answer.
func setUpFleet(ctx context.Context, cfg config, pop []item, r *result, salt int) (*fleet, float64, error) {
	t0 := time.Now()
	fl, err := startFleet(ctx, cfg.BinDir)
	if err != nil {
		return nil, 0, err
	}
	var warm []*request
	for _, i := range warmupSet(pop) {
		warm = append(warm, newRequest(pop, i, salt))
	}
	outs := sequential(ctx, loadClient(fl.router.URL(), 1), warm)
	secs := time.Since(t0).Seconds()
	if err := ctx.Err(); err != nil {
		fl.stop()
		return nil, 0, err
	}
	tallyOutcomes(r, pop, outs)
	return fl, secs, nil
}

// runService runs a service workload: set-up probes, then (repeat only) the
// working set put into the cache, an open loop for the first three fifths of
// cfg.Seconds, and a closed loop with one request in flight per CPU for the
// rest. With -trace 1 the population is then replayed in-process for the
// layer metrics.
func runService(ctx context.Context, cfg config, w workload, pop []item) (*result, error) {
	r := newResult(w, cfg)
	senders := runtime.NumCPU()
	var setups []float64
	var fl *fleet
	for i := 0; i < serviceSetups; i++ {
		f, secs, err := setUpFleet(ctx, cfg, pop, r, reservedSalt+i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if i < serviceSetups-1 {
			f.stop()
		} else {
			fl = f
		}
	}
	defer fl.stop()
	c := loadClient(fl.router.URL(), senders)
	st := newStream(cfg.Seed, pop, w.Repeat)

	var solved []*outcome // responses that went through a worker
	if w.Repeat {
		prewarm := sequential(ctx, c, st.workingSet())
		tallyOutcomes(r, pop, prewarm)
		solved = append(solved, prewarm...)
	}
	before, err := fl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// The open loop gets three fifths of the window: its tail quantile needs
	// the samples more than the closed loop's mean rate does.
	window := time.Duration(cfg.Seconds * float64(time.Second))
	openFor := window * 3 / 5
	open := openLoop(ctx, c, st, w.Rate, max(1, int(w.Rate*openFor.Seconds())), senders)
	closed := closedLoop(ctx, c, st, window-openFor, senders)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := fl.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	phases := append(append([]*outcome(nil), open...), closed...)
	tallyOutcomes(r, pop, phases)

	// The latency metrics are over the open loop's requests, a request
	// without a verdict counting as failedLatencyMS.
	var lat, lag, medians []float64
	perBase := make([][]*outcome, len(pop))
	for _, o := range open {
		perBase[o.req.base] = append(perBase[o.req.base], o)
		lat = append(lat, o.latencyMS())
		lag = append(lag, float64(o.sent.Sub(o.due).Nanoseconds())/1e6)
	}
	r.GenLagP99MS = quantile(sorted(lag), 0.99)
	for i, it := range pop {
		if len(perBase[i]) == 0 {
			continue
		}
		var ms []float64
		rw := row{Name: it.Name, Family: it.Family, Runs: len(perBase[i])}
		for _, o := range perBase[i] {
			ms = append(ms, o.latencyMS())
			if o.ok() && rw.Verdict == "" {
				rw.Verdict = o.resp.Status
				if o.resp.Stats != nil {
					rw.CNFClauses, rw.Conflicts = o.resp.Stats.CNFClauses, o.resp.Stats.ConflictClauses
				}
			}
		}
		rw.BestMS, rw.MedianMS = sorted(ms)[0], median(ms)
		medians = append(medians, rw.MedianMS)
		r.Rows = append(r.Rows, rw)
	}
	// geomean_ms is over formulas of each formula's median latency, so a
	// request queued behind a slow formula counts when it is typical, not
	// when it is the luck of one run. A fresh request's latency depends on
	// the formula it solves, and the nearest-rank p98 over all requests
	// spread by 11–22% of its median between seeds, about as much as the
	// host's speed. Cache hits all cost about the same, so the upper
	// request quantiles of the repeat workload only count scheduling hiccups
	// of four processes sharing the CPUs: its p98 and p99 spread by 63–95% of
	// their median between seeds at 20–60 rps. Its tail_ms is the p98 over
	// formulas of their median latencies instead.
	r.Metrics["geomean_ms"] = geomean(medians)
	if w.Repeat {
		r.Metrics["tail_ms"] = quantile(sorted(medians), 0.98)
	} else {
		r.Metrics["tail_ms"] = quantile(sorted(lat), 0.98)
	}
	r.Metrics["capacity_rps"] = closedRate(closed)
	r.Metrics["peak_rss_mb"] = rss
	r.Metrics["setup_s"] = median(setups)

	if !cfg.Trace {
		return r, nil
	}
	for _, o := range phases {
		if o.ok() && !o.resp.Cached {
			solved = append(solved, o)
		}
	}
	serverMetrics(r, phases, solved, after.minus(before))
	replay := make([]item, len(pop))
	for i, it := range pop {
		it.Text = newRequest(pop, i, 0).body.Formula
		replay[i] = it
	}
	return r, attribution(ctx, cfg, rand.New(rand.NewSource(cfg.Seed)), replay, r, 3, 0)
}

// serverMetrics derives the server and router layer metrics: queue and solve
// times of requests that reached a worker, the server's own overhead
// (total − queue − solve) and the router hop (client round trip − server
// total) of every answered request, and counter deltas over the phases.
func serverMetrics(r *result, all, solved []*outcome, delta counters) {
	var queue, solve, overhead, hop []float64
	hits, answered := 0, 0
	for _, o := range solved {
		queue = append(queue, o.resp.QueueMS)
		solve = append(solve, o.resp.SolveMS)
	}
	for _, o := range all {
		if !o.ok() {
			continue
		}
		answered++
		if o.resp.Cached {
			hits++
		}
		overhead = append(overhead, o.resp.TotalMS-o.resp.QueueMS-o.resp.SolveMS)
		hop = append(hop, float64(o.done.Sub(o.sent).Nanoseconds())/1e6-o.resp.TotalMS)
	}
	queue = sorted(queue)
	m := r.Metrics
	m["server.queue_p50_ms"] = quantile(queue, 0.5)
	m["server.queue_p99_ms"] = quantile(queue, 0.99)
	m["server.solve_p50_ms"] = median(solve)
	m["server.overhead_p50_ms"] = median(overhead)
	m["router.hop_p50_ms"] = median(hop)
	m["server.cache_hit_ratio"] = 0
	if answered > 0 {
		m["server.cache_hit_ratio"] = float64(hits) / float64(answered)
	}
	m["router.hedges"] = delta.hedges
	m["router.hedge_wins"] = delta.hedgeWins
	m["router.failovers"] = delta.failovers
	m["server.shed"] = delta.shed
}

// servicePass sends a paper population once through a fleet, one request at
// a time, so the paper workloads report the server and router layers too.
func servicePass(ctx context.Context, cfg config, pop []item, r *result) error {
	fl, err := startFleet(ctx, cfg.BinDir)
	if err != nil {
		return err
	}
	defer fl.stop()
	before, err := fl.scrape(ctx)
	if err != nil {
		return err
	}
	reqs := make([]*request, len(pop))
	for i, it := range pop {
		reqs[i] = &request{base: i, body: server.Request{Formula: it.Text, WantModel: !it.Valid}}
	}
	outs := sequential(ctx, loadClient(fl.router.URL(), 1), reqs)
	after, err := fl.scrape(ctx)
	if err != nil {
		return err
	}
	tallyOutcomes(r, pop, outs)
	var solved []*outcome
	for _, o := range outs {
		if o.ok() {
			solved = append(solved, o)
		}
	}
	serverMetrics(r, outs, solved, after.minus(before))
	if len(outs) < len(reqs) {
		return fmt.Errorf("service pass: %w", ctx.Err())
	}
	return nil
}
