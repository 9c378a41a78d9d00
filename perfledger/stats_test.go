package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 0.99, 990}, // ten samples beyond, not nine
		{1000, 0.50, 500},
		{600, 0.98, 588},
		{216, 0.95, 206},
		{100, 0.07, 7}, // p·n is 7.000000000000001 in floating point
		{45, 0.98, 45},
		{45, 0.50, 23},
		{4, 0.50, 2},
		{1, 0.99, 1},
		{10, 0, 1},
		{10, 1, 10},
	}
	for _, c := range cases {
		if got := quantile(seq(c.n), c.p); got != c.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}
