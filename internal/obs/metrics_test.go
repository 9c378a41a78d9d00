package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRoundTrip writes a populated registry through the exposition
// and back through the strict parser: every family, label and value must
// survive, and the histogram must satisfy the bucket invariants the parser
// enforces.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rt_requests_total", "requests", "status", "ok")
	c.Add(7)
	reg.Counter("rt_requests_total", "requests", "status", "shed").Add(3)
	g := reg.Gauge("rt_depth", "queue depth")
	g.Set(42)
	reg.GaugeFunc("rt_live", "liveness", func() float64 { return 1 })
	reg.CounterFunc("rt_seen_total", "seen", func() float64 { return 12.5 })
	fc := reg.FloatCounter("rt_seconds_total", "elapsed", "phase", "sat")
	fc.Add(1.25)
	h := reg.Histogram("rt_latency_seconds", "latency", ExpBuckets(0.001, 10, 4))
	for _, v := range []float64{0.0005, 0.002, 0.02, 0.2, 2, 20} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	scrape, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse own exposition: %v\n%s", err, sb.String())
	}

	if v, ok := scrape.Value("rt_requests_total", "status", "ok"); !ok || v != 7 {
		t.Errorf("rt_requests_total{status=ok} = %v, %v; want 7", v, ok)
	}
	if v := scrape.Sum("rt_requests_total"); v != 10 {
		t.Errorf("sum rt_requests_total = %v, want 10", v)
	}
	if v, ok := scrape.Value("rt_depth"); !ok || v != 42 {
		t.Errorf("rt_depth = %v, %v; want 42", v, ok)
	}
	if v, ok := scrape.Value("rt_seen_total"); !ok || v != 12.5 {
		t.Errorf("rt_seen_total = %v, %v; want 12.5", v, ok)
	}
	if v, ok := scrape.Value("rt_seconds_total", "phase", "sat"); !ok || v != 1.25 {
		t.Errorf("rt_seconds_total{phase=sat} = %v, %v; want 1.25", v, ok)
	}
	if v, ok := scrape.Value("rt_latency_seconds_count"); !ok || v != 6 {
		t.Errorf("histogram count = %v, %v; want 6", v, ok)
	}
	if v, ok := scrape.Value("rt_latency_seconds_bucket", "le", "+Inf"); !ok || v != 6 {
		t.Errorf("+Inf bucket = %v, %v; want 6", v, ok)
	}
	if v, ok := scrape.Value("rt_latency_seconds_bucket", "le", "0.001"); !ok || v != 1 {
		t.Errorf("0.001 bucket = %v, %v; want 1", v, ok)
	}
	fam := scrape.Family("rt_latency_seconds")
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("rt_latency_seconds family missing or mistyped: %+v", fam)
	}
}

// TestHistogramConcurrentRecordScrape hammers one histogram from many
// writers while scraping concurrently; under -race this is the data-race
// gate for the lock-free record path, and every intermediate scrape must
// still parse strictly (cumulative buckets, +Inf == _count).
func TestHistogramConcurrentRecordScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cc_latency_seconds", "latency", ExpBuckets(1e-4, 2, 12))
	const writers = 8
	const perWriter = 5000
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) / 1e4)
			}
		}()
	}
	stop := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraperDone <- nil
				return
			default:
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				scraperDone <- err
				return
			}
			if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
				scraperDone <- err
				return
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	if err := <-scraperDone; err != nil {
		t.Fatalf("concurrent scrape: %v", err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("final parse: %v", err)
	}
	if v, _ := scrape.Value("cc_latency_seconds_count"); v != writers*perWriter {
		t.Fatalf("scraped count = %v, want %d", v, writers*perWriter)
	}
}

// TestLabelCapConcurrent: writers racing over more label values than the
// cap leave exactly maxLabelChildren children plus one "other", and no
// increment is lost.
func TestLabelCapConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := counterCap(reg, "lc_total", "h", "v")
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.child(strconv.Itoa((w*perWriter + i) % 100)).Inc()
			}
		}(w)
	}
	wg.Wait()
	children, total, other := 0, 0.0, 0.0
	reg.VisitSamples(func(s SampleInfo) {
		if s.Name == "lc_total" {
			children++
			total += s.Value
			if s.Labels == `{v="other"}` {
				other = s.Value
			}
		}
	})
	if children != maxLabelChildren+1 || total != writers*perWriter || other == 0 {
		t.Fatalf("%d children, %v increments, %v in other; want %d, %d and some",
			children, total, other, maxLabelChildren+1, writers*perWriter)
	}
}

// TestParsePrometheusRejects feeds the strict parser malformed expositions.
func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "x_total 1\n",
		"unknown type":        "# TYPE x_total widget\nx_total 1\n",
		"duplicate TYPE":      "# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"timestamped sample":  "# TYPE x gauge\nx 1 1700000000\n",
		"missing +Inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"lowercase inf spelling": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n" +
			"h_bucket{le=\"inf\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n" +
			"h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing _sum": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"bad escape":   "# TYPE x gauge\nx{a=\"\\q\"} 1\n",
		"empty":        "",
	}
	for name, text := range cases {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted invalid exposition:\n%s", name, text)
		}
	}
}

// TestHistQuantile checks the interpolated quantile on a known shape.
func TestHistQuantile(t *testing.T) {
	mk := func(le string, v float64) PromSample {
		return PromSample{Name: "h_bucket", Labels: map[string]string{"le": le}, Value: v}
	}
	// 10 observations uniform in (0, 1]: buckets 0.5 → 5, 1 → 10.
	buckets := []PromSample{mk("0.5", 5), mk("1", 10), mk("+Inf", 10)}
	if got := HistQuantile(0.5, buckets); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p50 = %v, want 0.5", got)
	}
	if got := HistQuantile(0.75, buckets); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("p75 = %v, want 0.75", got)
	}
	// Rank landing in the +Inf bucket returns the last finite bound.
	tail := []PromSample{mk("1", 1), mk("+Inf", 10)}
	if got := HistQuantile(0.99, tail); got != 1 {
		t.Errorf("tail-bucket quantile = %v, want 1", got)
	}
	if got := HistQuantile(0.5, nil); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

// TestParseInfOnlyHistogram pins the strict parser and HistQuantile on the
// degenerate histograms real scrapers meet: a histogram whose only bucket is
// +Inf (every bound removed, or a default-bounds build exporting none), and
// a freshly registered histogram with zero observations. Both must parse —
// the envelope invariants (cumulative, +Inf == _count, _sum present) hold
// vacuously — and quantiles over them must be the neutral 0, never NaN or a
// fabricated bound.
func TestParseInfOnlyHistogram(t *testing.T) {
	cases := []struct {
		name string
		text string
		// quantile inputs/expectation over the parsed h_bucket samples
		q    float64
		want float64
	}{
		{
			name: "inf-only, zero observations",
			text: "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n",
			q:    0.99,
			want: 0,
		},
		{
			name: "inf-only, observations",
			text: "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 7\nh_sum 3.5\nh_count 7\n",
			q:    0.5,
			// Every observation lands in the unbounded tail: no finite bound
			// precedes it, so the quantile degrades to 0 rather than inventing
			// an upper bound.
			want: 0,
		},
		{
			name: "finite bounds, zero observations",
			text: "# TYPE h histogram\nh_bucket{le=\"0.1\"} 0\nh_bucket{le=\"1\"} 0\n" +
				"h_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n",
			q:    0.5,
			want: 0,
		},
	}
	for _, tc := range cases {
		scrape, err := ParsePrometheus(strings.NewReader(tc.text))
		if err != nil {
			t.Errorf("%s: strict parser rejected a valid degenerate histogram: %v", tc.name, err)
			continue
		}
		f := scrape.Family("h")
		if f == nil || f.Type != "histogram" {
			t.Errorf("%s: family h missing or mistyped: %+v", tc.name, f)
			continue
		}
		var buckets []PromSample
		for _, s := range f.Samples {
			if s.Name == "h_bucket" {
				buckets = append(buckets, s)
			}
		}
		if got := HistQuantile(tc.q, buckets); got != tc.want {
			t.Errorf("%s: HistQuantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}

	// The registry side of the same pin: a Histogram registered with no
	// bounds exposes exactly the +Inf-only shape, and the round trip through
	// the strict parser holds before and after observations.
	reg := NewRegistry()
	h := reg.Histogram("h", "help", nil)
	for _, phase := range []struct {
		name string
		obs  func()
	}{
		{"before observations", func() {}},
		{"after observations", func() { h.Observe(0.25); h.Observe(4) }},
	} {
		phase.obs()
		scrape, err := ParsePrometheus(strings.NewReader(reg.Expose()))
		if err != nil {
			t.Fatalf("%s: round trip: %v", phase.name, err)
		}
		inf, ok := scrape.Value("h_bucket", "le", "+Inf")
		if !ok {
			t.Fatalf("%s: +Inf bucket missing", phase.name)
		}
		count, _ := scrape.Value("h_count")
		if inf != count {
			t.Fatalf("%s: +Inf bucket %v != count %v", phase.name, inf, count)
		}
	}
}

// TestServiceMetricsNil verifies the nil-receiver contract: every update on
// a nil *ServiceMetrics is a no-op.
func TestServiceMetricsNil(t *testing.T) {
	var m *ServiceMetrics
	m.ObserveRequest("valid", "HYBRID", 0.1, 0.2, 0.3)
	m.ObserveDegraded("saturation")
	m.ObserveSnapshot(&Snapshot{Method: "HYBRID"})
	m.ObserveSnapshot(nil)
	if m.Registry() != nil {
		t.Error("nil ServiceMetrics has a registry")
	}
	if got := NewServiceMetrics(nil, nil, nil); got != nil {
		t.Errorf("NewServiceMetrics(nil reg) = %v, want nil", got)
	}
}
