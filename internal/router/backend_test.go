package router

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestLatWindowQuantile checks Quantile against a reference that sorts a
// fresh copy of the filled entries, on random windows: empty, partly
// filled, full and wrapped, with q inside and outside [0,1]. A window's
// entries stay in ring order after a Quantile call.
func TestLatWindowQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reference := func(w *latWindow, q float64) time.Duration {
		if w.n == 0 {
			return 0
		}
		sample := append([]time.Duration(nil), w.buf[:w.n]...)
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		idx := int(q * float64(len(sample)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		return sample[idx]
	}
	for i := 0; i < 300; i++ {
		size := 1 + rng.Intn(300)
		w := newLatWindow(size)
		observed := rng.Intn(3 * size)
		if i < 10 {
			observed = i // empty and nearly empty windows
		}
		for range observed {
			w.Observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
		}
		ring := append([]time.Duration(nil), w.buf...)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1, rng.Float64(), -0.5, 1.5} {
			if got, want := w.Quantile(q), reference(w, q); got != want {
				t.Fatalf("window %d (size %d, %d observed): Quantile(%v) = %v, reference %v", i, size, observed, q, got, want)
			}
		}
		for k := range ring {
			if w.buf[k] != ring[k] {
				t.Fatalf("window %d: Quantile reordered the ring", i)
			}
		}
	}
}
