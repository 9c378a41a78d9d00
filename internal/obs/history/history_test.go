package history

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"sufsat/internal/obs"
)

// snapN drives n snapshots with a between-snap mutation hook, spacing the
// ring deterministically without real time passing (Snap stamps wall time,
// which only the window cutoff reads; back-to-back snaps stay inside any
// test window).
func snapN(h *History, n int, between func(i int)) {
	for i := 0; i < n; i++ {
		if between != nil {
			between(i)
		}
		h.Snap()
	}
}

func TestNilHistory(t *testing.T) {
	var h *History
	if h2 := New(nil, Config{}); h2 != nil {
		t.Fatal("New(nil registry) should return nil")
	}
	h.Start()
	h.Snap()
	h.Stop()
	if h.Snapshots() != 0 || h.Interval() != 0 {
		t.Fatal("nil history accessors should zero")
	}
	if _, ok := h.CounterDelta("x", "", "", time.Minute); ok {
		t.Fatal("nil CounterDelta ok")
	}
	if _, _, _, ok := h.WindowBuckets("x", time.Minute); ok {
		t.Fatal("nil WindowBuckets ok")
	}
	if _, ok := h.Window("x", time.Minute); ok {
		t.Fatal("nil Window ok")
	}
	// Handler on a nil collector answers 404, not a panic.
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/history?family=x", nil))
	if rec.Code != 404 {
		t.Fatalf("nil handler status = %d, want 404", rec.Code)
	}
}

// TestCounterDelta pins the delta encoding: the first snapshot a counter
// appears in contributes its baseline, not its process-lifetime total, and
// the window sums only subsequent increases.
func TestCounterDelta(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("t_reqs_total", "h", "status", "ok")
	c.Add(1000) // pre-history total: must never read as a burst
	h := New(reg, Config{Slots: 16})

	h.Snap() // baseline
	if _, ok := h.CounterDelta("t_reqs_total", "", "", time.Hour); ok {
		t.Fatal("one snapshot should not answer a window query")
	}
	snapN(h, 3, func(int) { c.Add(5) })
	got, ok := h.CounterDelta("t_reqs_total", "", "", time.Hour)
	if !ok || got != 15 {
		t.Fatalf("CounterDelta = %v, %v; want 15, true", got, ok)
	}
	// Label-filtered query: matching child only.
	if got, ok := h.CounterDelta("t_reqs_total", "status", "ok", time.Hour); !ok || got != 15 {
		t.Fatalf("filtered CounterDelta = %v, %v; want 15, true", got, ok)
	}
	if _, ok := h.CounterDelta("t_reqs_total", "status", "nope", time.Hour); !ok {
		t.Fatal("filter miss on a known family still reports the family known")
	}
	if _, ok := h.CounterDelta("t_unknown_total", "", "", time.Hour); ok {
		t.Fatal("unknown family should be !ok")
	}
}

// TestLateRegistration pins the NaN-absent encoding: a counter created after
// the ring has snapshots must not leak its creation-time total into windows.
func TestLateRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(reg, Config{Slots: 16})
	snapN(h, 3, nil)

	late := reg.Counter("t_late_total", "h")
	late.Add(500)
	h.Snap() // first sight: baseline only
	got, ok := h.CounterDelta("t_late_total", "", "", time.Hour)
	if !ok || got != 0 {
		t.Fatalf("late counter first window = %v, %v; want 0, true", got, ok)
	}
	late.Add(7)
	h.Snap()
	if got, _ := h.CounterDelta("t_late_total", "", "", time.Hour); got != 7 {
		t.Fatalf("late counter delta = %v, want 7", got)
	}
}

// TestRingWrap pins the bound: the ring holds Slots snapshots and a window
// query sees only the retained tail.
func TestRingWrap(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("t_wrap_total", "h")
	h := New(reg, Config{Slots: 8})
	snapN(h, 40, func(int) { c.Add(1) })
	if got := h.Snapshots(); got != 8 {
		t.Fatalf("Snapshots = %d, want 8 (ring bound)", got)
	}
	// 8 retained snaps → 7 summable intervals of +1 each.
	if got, ok := h.CounterDelta("t_wrap_total", "", "", time.Hour); !ok || got != 7 {
		t.Fatalf("wrapped CounterDelta = %v, %v; want 7, true", got, ok)
	}
}

// TestWindowBucketsAndQuantiles pins the histogram path: windowed cumulative
// buckets and interpolated quantiles over them.
func TestWindowBucketsAndQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("t_lat_seconds", "h", []float64{0.1, 1})
	h := New(reg, Config{Slots: 16})
	h.Snap()
	for i := 0; i < 90; i++ {
		hist.Observe(0.05) // below 0.1
	}
	for i := 0; i < 10; i++ {
		hist.Observe(0.5) // (0.1, 1]
	}
	h.Snap()

	bounds, cum, total, ok := h.WindowBuckets("t_lat_seconds", time.Hour)
	if !ok {
		t.Fatal("WindowBuckets !ok")
	}
	if total != 100 {
		t.Fatalf("windowed total = %v, want 100", total)
	}
	if len(bounds) != 3 || !math.IsInf(bounds[2], +1) {
		t.Fatalf("bounds = %v, want [0.1 1 +Inf]", bounds)
	}
	if cum[0] != 90 || cum[1] != 100 || cum[2] != 100 {
		t.Fatalf("cum = %v, want [90 100 100]", cum)
	}
	p50 := obs.BucketQuantile(0.50, bounds, cum)
	if p50 <= 0 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within (0, 0.1]", p50)
	}
	p99 := obs.BucketQuantile(0.99, bounds, cum)
	if p99 <= 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v, want within (0.1, 1]", p99)
	}
	if !math.IsNaN(obs.BucketQuantile(0.5, nil, nil)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// TestWindowFamilies pins the /debug/history family views: counter rates,
// gauge min/max/last, histogram quantiles, and sparkline points.
func TestWindowFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("t_ops_total", "h", "kind", "a")
	g := reg.Gauge("t_depth", "h")
	hist := reg.Histogram("t_dur_seconds", "h", []float64{0.1, 1})
	h := New(reg, Config{Slots: 32})

	g.Set(3)
	h.Snap()
	for i := 0; i < 4; i++ {
		c.Add(10)
		g.Set(int64(5 + i))
		hist.Observe(0.05)
		hist.Observe(0.5)
		h.Snap()
	}

	fw, ok := h.Window("t_ops_total", time.Hour)
	if !ok || fw.Kind != "counter" || len(fw.Children) != 1 {
		t.Fatalf("counter window = %+v, ok=%v", fw, ok)
	}
	ch := fw.Children[0]
	if ch.Delta != 40 {
		t.Fatalf("counter delta = %v, want 40", ch.Delta)
	}
	if ch.RatePerSec <= 0 {
		t.Fatalf("counter rate = %v, want > 0", ch.RatePerSec)
	}
	if len(ch.Points) == 0 {
		t.Fatal("counter sparkline empty")
	}

	fw, ok = h.Window("t_depth", time.Hour)
	if !ok || fw.Kind != "gauge" {
		t.Fatalf("gauge window = %+v, ok=%v", fw, ok)
	}
	ch = fw.Children[0]
	if ch.Min != 3 || ch.Max != 8 || ch.Last != 8 {
		t.Fatalf("gauge min/max/last = %v/%v/%v, want 3/8/8", ch.Min, ch.Max, ch.Last)
	}

	fw, ok = h.Window("t_dur_seconds", time.Hour)
	if !ok || fw.Kind != "histogram" {
		t.Fatalf("histogram window = %+v, ok=%v", fw, ok)
	}
	ch = fw.Children[0]
	if ch.Delta != 8 {
		t.Fatalf("histogram windowed count = %v, want 8", ch.Delta)
	}
	if ch.P50 <= 0 || ch.P99 <= ch.P50 {
		t.Fatalf("histogram quantiles p50=%v p99=%v", ch.P50, ch.P99)
	}

	if _, ok := h.Window("t_absent", time.Hour); ok {
		t.Fatal("unknown family window should be !ok")
	}
}

// TestDownsample pins the sparkline bound.
func TestDownsample(t *testing.T) {
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{AtNS: int64(i), V: 1}
	}
	out := downsample(pts)
	if len(out) > maxPoints {
		t.Fatalf("downsample kept %d points, cap %d", len(out), maxPoints)
	}
	if out[0].V != 1 {
		t.Fatalf("downsample averaged constant series to %v", out[0].V)
	}
}

// TestHandler pins the HTTP surface: required family param, window parsing,
// JSON schema round trip.
func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("t_h_total", "h")
	h := New(reg, Config{Slots: 16})
	snapN(h, 3, func(int) { c.Add(2) })

	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/debug/history", 400},
		{"/debug/history?family=t_h_total&window=banana", 400},
		{"/debug/history?family=t_h_total&window=-5s", 400},
		{"/debug/history?family=t_h_total&window=5m", 200},
		{"/debug/history?family=t_h_total,t_missing", 200},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.url)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.url, err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
		if tc.code != 200 {
			resp.Body.Close()
			continue
		}
		var d Dump
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatalf("GET %s decode: %v", tc.url, err)
		}
		resp.Body.Close()
		if d.Snapshots != 3 || len(d.Families) == 0 {
			t.Errorf("GET %s dump = %+v", tc.url, d)
		}
		if d.Families[0].Family != "t_h_total" || d.Families[0].Children[0].Delta != 4 {
			t.Errorf("GET %s family dump = %+v", tc.url, d.Families[0])
		}
	}
}

// TestStartStop pins collector lifecycle: the goroutine snaps on its own and
// Stop joins it (twice, and without Start, without hanging).
func TestStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t_ss_total", "h")
	h := New(reg, Config{Interval: time.Millisecond, Slots: 16})
	h.Start()
	deadline := time.Now().Add(2 * time.Second)
	for h.Snapshots() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.Snapshots() < 2 {
		t.Fatal("collector took no snapshots")
	}
	h.Stop()
	h.Stop() // idempotent

	h2 := New(reg, Config{})
	h2.Stop() // never started: must not hang
}
