package server_test

import (
	"context"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/faultinject"
	"sufsat/internal/server"
)

// TestSoak hammers an in-process server with concurrent retrying clients over
// the Sample16 workload while injecting request panics, clause-budget
// exhaustion and the suite's naturally slow solves, then drains. It verifies
// the fault-tolerance contract end to end: every verdict matches ground
// truth, overload is shed (and recovered from) with Retry-After, at least one
// blown budget is converted into a lazy-path success by the degradation
// ladder, panics surface as structured 500s without killing the server, and
// the drain leaves no goroutines behind. Run with -race in CI (make ci).
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	err := faultinject.LeakCheck(func() {
		// Every 17th executed request panics at the server.exec fault point.
		inj := faultinject.New(server.StageExec, faultinject.Panic).EveryNth(17)
		s := server.New(server.Config{
			Workers:  4,
			MaxQueue: 4, // small on purpose: the soak's 10 clients must overrun it
			Hook:     inj.Stage,
			// NoCache: the workload replays 16 formulas hundreds of times; with
			// the verdict cache on, nearly every request would be answered
			// without executing, starving the shed/degrade/panic paths this
			// soak exists to exercise. The cached path has its own soak
			// (TestSoakCacheMix).
			NoCache: true,
		})
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}

		rep, err := bench.RunSoak(context.Background(), bench.SoakConfig{
			URL:         "http://" + addr,
			Requests:    64,
			TimeoutMS:   20000,
			BudgetEvery: 8, // every 8th request carries a 1-clause CNF budget
			MaxAttempts: 10,
		})
		if err != nil {
			t.Fatalf("soak: %v", err)
		}

		if rep.Completed != int64(rep.Requests) {
			t.Errorf("completed %d of %d requests", rep.Completed, rep.Requests)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%d verdicts contradicted ground truth", rep.Mismatches)
		}
		if rep.TransportErrors != 0 {
			t.Errorf("%d transport errors", rep.TransportErrors)
		}
		if rep.ShedRetried+rep.ShedGaveUp == 0 {
			t.Error("no request was ever shed: overload path not exercised")
		}
		if rep.ShedRetried == 0 {
			t.Error("no shed request recovered via Retry-After backoff")
		}
		if rep.DegradedResourceOut == 0 {
			t.Error("degradation ladder never converted a ResourceOut into a lazy answer")
		}
		if rep.Panics == 0 || inj.Fired() == 0 {
			t.Errorf("no contained panics observed (injector fired %d times)", inj.Fired())
		}
		if got := s.Probe().Counters().Panics; got != int64(rep.Panics) {
			t.Errorf("server counted %d panics, clients saw %d", got, rep.Panics)
		}

		// Drain must complete within its deadline with no request in flight.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}, 10*time.Second)
	if err != nil {
		t.Error(err)
	}
}

// TestSoakCacheMix is the cached-path counterpart of TestSoak: concurrent
// clients over a workload that repeats formulas and mixes in alpha-renamed
// spellings, against a server with the verdict cache ON. The contract under
// test: a high hit rate AND zero verdict mismatches vs ground truth — a
// cache that served a stale, colliding or wrongly-transferred entry would
// surface as a mismatch here, and the race detector (make ci) covers the
// cache and single-flight internals under this load.
func TestSoakCacheMix(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	err := faultinject.LeakCheck(func() {
		s := server.New(server.Config{
			Workers:  4,
			MaxQueue: 32,
		})
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}

		rep, err := bench.RunSoak(context.Background(), bench.SoakConfig{
			URL:         "http://" + addr,
			Requests:    96,
			TimeoutMS:   20000,
			CacheMix:    0.4,
			MaxAttempts: 10,
		})
		if err != nil {
			t.Fatalf("soak: %v", err)
		}

		if rep.Completed != int64(rep.Requests) {
			t.Errorf("completed %d of %d requests", rep.Completed, rep.Requests)
		}
		if rep.Mismatches != 0 {
			t.Errorf("%d verdicts contradicted ground truth through the cache", rep.Mismatches)
		}
		if rep.TransportErrors != 0 {
			t.Errorf("%d transport errors", rep.TransportErrors)
		}
		if rep.AlphaVariants == 0 {
			t.Error("cache mix issued no alpha-variant requests")
		}
		// 96 requests over 16 base formulas plus variants: everything after
		// the first solve of each fingerprint can be served from the cache.
		if rep.CacheHits == 0 {
			t.Error("no request was served from the verdict cache")
		}
		if rep.CacheHitRate < 0.25 {
			t.Errorf("cache hit rate %.2f too low for a repeating workload", rep.CacheHitRate)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}, 10*time.Second)
	if err != nil {
		t.Error(err)
	}
}
