package bench

import (
	"context"
	"testing"
)

// The incremental session must beat the per-depth pipeline on its home
// workload. The 1.5x bar is far under the observed ratio (4-8x at depths
// 8-16) so the gate flags a real regression, not scheduler noise.
func TestBMCStreamSpeedup(t *testing.T) {
	rep, err := RunBMCStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("lockstep property should hold: %+v", rep)
	}
	if rep.Queries != 9 {
		t.Fatalf("Queries = %d, want 9", rep.Queries)
	}
	if rep.Speedup < 1.5 {
		t.Fatalf("incremental BMC speedup %.2fx < 1.5x (cold %.1fms, warm %.1fms)",
			rep.Speedup, rep.ColdMS, rep.WarmMS)
	}
	t.Logf("BMC-stream: cold %.1fms warm %.1fms speedup %.2fx", rep.ColdMS, rep.WarmMS, rep.Speedup)
}
