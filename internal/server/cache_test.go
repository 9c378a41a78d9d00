package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/router"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

func newCacheTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		ts.Close()
	})
	return s, client.New(ts.URL)
}

const cacheTestFormula = "(=> (and (= x y) (= y z)) (= (f x) (f z)))"

// TestCacheHitRepeat: the second identical request is served from the cache,
// marked Cached, with the same verdict. The router's ring key is the cache
// key, for a SUF request and for an SMT2 one.
func TestCacheHitRepeat(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	r1, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula})
	if err != nil {
		t.Fatalf("first decide: %v", err)
	}
	if r1.Status != "valid" || r1.Cached {
		t.Fatalf("first: status=%s cached=%v, want valid/uncached", r1.Status, r1.Cached)
	}
	if r1.Fingerprint == "" {
		t.Fatalf("first response carries no fingerprint")
	}
	r2, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula})
	if err != nil {
		t.Fatalf("second decide: %v", err)
	}
	if r2.Status != "valid" || !r2.Cached {
		t.Fatalf("second: status=%s cached=%v, want valid/cached", r2.Status, r2.Cached)
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Fatalf("fingerprint changed between identical requests")
	}

	smt := `(declare-const x Int)(declare-const y Int)(assert (< x y))(check-sat)`
	r3, err := c.Decide(ctx, &server.Request{Formula: smt, SMT2: true})
	if err != nil {
		t.Fatalf("smt2 decide: %v", err)
	}
	for _, k := range []struct {
		formula string
		smt2    bool
		key     string
	}{{cacheTestFormula, false, r1.Fingerprint}, {smt, true, r3.Fingerprint}} {
		if fp, err := router.Fingerprint(k.formula, k.smt2); err != nil || fp != k.key {
			t.Errorf("router key %q (err %v) for smt2=%v, backend cache key %q", fp, err, k.smt2, k.key)
		}
	}
}

// TestCacheAlphaVariantHit: a consistently renamed spelling of the same
// formula hits the canonical cache entry.
func TestCacheAlphaVariantHit(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	if _, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula}); err != nil {
		t.Fatalf("warm: %v", err)
	}
	renamed := "(=> (and (= u v) (= v w)) (= (g u) (g w)))"
	r, err := c.Decide(ctx, &server.Request{Formula: renamed})
	if err != nil {
		t.Fatalf("renamed decide: %v", err)
	}
	if r.Status != "valid" || !r.Cached {
		t.Fatalf("alpha variant: status=%s cached=%v, want valid/cached", r.Status, r.Cached)
	}
}

// TestCacheModelNotServedAcrossVariants: a want_model request for an
// alpha-variant must not receive the original's model (its symbol names
// would be wrong) — it re-solves and gets its own.
func TestCacheModelNotServedAcrossVariants(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	orig := "(=> (= (f a) (f b)) (= a b))" // invalid: no injectivity
	if r, err := c.Decide(ctx, &server.Request{Formula: orig, WantModel: true}); err != nil || r.Status != "invalid" {
		t.Fatalf("warm: %v / %+v", err, r)
	}
	renamed := "(=> (= (h p) (h q)) (= p q))"
	r, err := c.Decide(ctx, &server.Request{Formula: renamed, WantModel: true})
	if err != nil {
		t.Fatalf("renamed: %v", err)
	}
	if r.Status != "invalid" {
		t.Fatalf("renamed status=%s, want invalid", r.Status)
	}
	if len(r.ModelConsts) == 0 {
		t.Fatalf("want_model request got no model")
	}
	if _, ok := r.ModelConsts["p"]; !ok {
		t.Fatalf("model uses wrong symbol names: %v", r.ModelConsts)
	}
	// Verdict-only repeat of the variant IS a cache hit now.
	r2, err := c.Decide(ctx, &server.Request{Formula: renamed})
	if err != nil || !r2.Cached {
		t.Fatalf("verdict-only repeat: err=%v cached=%v", err, r2.Cached)
	}
}

// TestCacheNoCacheBypass: no_cache requests neither read nor write the cache
// and their verdicts match the cached ones.
func TestCacheNoCacheBypass(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	if _, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula}); err != nil {
		t.Fatalf("warm: %v", err)
	}
	r, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula, NoCache: true})
	if err != nil {
		t.Fatalf("no_cache: %v", err)
	}
	if r.Cached {
		t.Fatalf("no_cache request served from cache")
	}
	if r.Status != "valid" {
		t.Fatalf("no_cache verdict %s differs from cached verdict valid", r.Status)
	}
}

// TestCacheDisabledServerWide: Config.NoCache turns the layer off entirely.
func TestCacheDisabledServerWide(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 1, MaxQueue: 8, NoCache: true})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		r, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula})
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if r.Cached {
			t.Fatalf("cache disabled but response %d marked cached", i)
		}
	}
}

// TestCacheSMT2DoesNotCollideWithSUF: the same source text as an SMT2
// sat-check and as a SUF validity check are different questions and must not
// share a cache entry. (A contrived SMT2 script that also parses as SUF is
// hard to build, so this exercises the negation keying instead: the SMT2
// request's fingerprint must differ from the SUF one of the same logical
// formula.)
func TestCacheSMT2Fingerprint(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()
	suf, err := c.Decide(ctx, &server.Request{Formula: "(< x y)"})
	if err != nil {
		t.Fatalf("suf: %v", err)
	}
	smt := `(set-logic QF_IDL)(declare-fun x () Int)(declare-fun y () Int)(assert (< x y))(check-sat)`
	sm, err := c.Decide(ctx, &server.Request{Formula: smt, SMT2: true})
	if err != nil {
		t.Fatalf("smt2: %v", err)
	}
	if suf.Fingerprint == "" || sm.Fingerprint == "" {
		t.Fatalf("missing fingerprints: %q %q", suf.Fingerprint, sm.Fingerprint)
	}
	if suf.Fingerprint == sm.Fingerprint {
		t.Fatalf("validity check and sat check share a fingerprint — cache collision")
	}
}

// TestCacheSingleflight: N concurrent identical requests produce exactly one
// solve; the rest join the leader.
func TestCacheSingleflight(t *testing.T) {
	// One worker: if single-flight failed, 8 identical requests would
	// serialize through 8 solves.
	s, c := newCacheTestServer(t, server.Config{Workers: 1, MaxQueue: 16})
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	results := make([]*server.Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Decide(ctx, &server.Request{Formula: cacheTestFormula})
		}(i)
	}
	wg.Wait()
	cached := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Status != "valid" {
			t.Fatalf("request %d: status %s", i, results[i].Status)
		}
		if results[i].Cached {
			cached++
		}
	}
	if cached == 0 {
		t.Fatalf("no request was served by the single-flight or cache")
	}
	_ = s
}

// TestStatuszCache: /statusz reports the cache block with hit counters.
func TestStatuszCache(t *testing.T) {
	s := server.New(server.Config{Workers: 1, MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		ts.Close()
	}()
	c := client.New(ts.URL)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Decide(ctx, &server.Request{Formula: cacheTestFormula}); err != nil {
			t.Fatalf("decide: %v", err)
		}
	}
	hresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	defer hresp.Body.Close()
	var status struct {
		Cache *server.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&status); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if status.Cache == nil {
		t.Fatalf("statusz has no cache block")
	}
	if status.Cache.Hits < 1 || status.Cache.Entries < 1 {
		t.Fatalf("cache counters not moving: %+v", status.Cache)
	}
}

// TestBatchDecide: mixed batch with in-batch duplicates; responses in input
// order, duplicates deduped via single-flight/cache.
func TestBatchDecide(t *testing.T) {
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 16})
	ctx := context.Background()

	reqs := []*server.Request{
		{Formula: cacheTestFormula},                             // valid
		{Formula: "(=> (= (f a) (f b)) (= a b))"},               // invalid
		{Formula: cacheTestFormula},                             // duplicate of 0
		{Formula: "(=> (and (= u v) (= v w)) (= (g u) (g w)))"}, // alpha-variant of 0
		{Formula: "(and (< x y) (< y x))"},                      // invalid
	}
	resps, err := c.DecideBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d items", len(resps), len(reqs))
	}
	want := []string{"valid", "invalid", "valid", "valid", "invalid"}
	for i, w := range want {
		if resps[i] == nil || resps[i].Status != w {
			t.Errorf("item %d: got %+v, want status %s", i, resps[i], w)
		}
	}
	// The duplicate and the alpha-variant must have shared item 0's work.
	if !resps[2].Cached && !resps[3].Cached {
		t.Errorf("in-batch duplicates were not deduped: %+v %+v", resps[2], resps[3])
	}
}

// TestBatchRejectsOversize: a batch past MaxBatch is rejected whole.
func TestBatchRejectsOversize(t *testing.T) {
	s := server.New(server.Config{Workers: 1, MaxQueue: 4, MaxBatch: 2})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
		ts.Close()
	}()
	body, _ := json.Marshal(server.BatchRequest{Items: []server.Request{
		{Formula: "p"}, {Formula: "q"}, {Formula: "r"},
	}})
	hresp, err := http.Post(ts.URL+"/v1/decide/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: HTTP %d, want 400", hresp.StatusCode)
	}
}

// TestCacheColdWarmSpeedup is the CI perf gate for the cache tentpole: a
// warm repeat of a nontrivial decide must be at least 10× faster than the
// cold solve, and a -no-cache repeat must agree on the verdict.
func TestCacheColdWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short")
	}
	_, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	// A formula with enough encode+solve weight that 10× is meaningful: a
	// hard Sample16 instance (hundreds of milliseconds cold), so the warm
	// path's HTTP round trip cannot blur the ratio.
	bm, ok := bench.ByName("dlx-7")
	if !ok {
		t.Fatal("dlx-7 benchmark missing from the suite")
	}
	bf, _ := bm.Build()
	formula := bf.String()
	wantStatus := "valid"
	if !bm.Valid {
		wantStatus = "invalid"
	}

	coldStart := time.Now()
	cold, err := c.Decide(ctx, &server.Request{Formula: formula, TimeoutMS: 30000})
	coldDur := time.Since(coldStart)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Status != wantStatus || cold.Cached {
		t.Fatalf("cold: %+v", cold)
	}

	// Median of several warm repeats vs the cold wall time.
	const reps = 5
	warmDurs := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		ws := time.Now()
		warm, err := c.Decide(ctx, &server.Request{Formula: formula, TimeoutMS: 30000})
		warmDurs = append(warmDurs, time.Since(ws))
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		if warm.Status != cold.Status || !warm.Cached {
			t.Fatalf("warm %d: %+v", i, warm)
		}
	}
	warm := median(warmDurs)
	if coldDur < 10*warm {
		t.Errorf("cache speedup %.1f× < 10× (cold %v, warm median %v)",
			float64(coldDur)/float64(warm), coldDur, warm)
	}

	nc, err := c.Decide(ctx, &server.Request{Formula: formula, NoCache: true, TimeoutMS: 30000})
	if err != nil {
		t.Fatalf("no_cache: %v", err)
	}
	if nc.Cached || nc.Status != cold.Status {
		t.Fatalf("no_cache verdict mismatch: %+v vs cold %s", nc, cold.Status)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
