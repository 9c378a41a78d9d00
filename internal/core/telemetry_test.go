package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/suf"
)

// hybridFixture is a formula that exercises both encodings of the hybrid
// method: equalities through function applications (small-domain classes)
// and an inequality chain (per-constraint classes).
const hybridFixture = "(=> (and (= x y) (< y z) (<= z (+ w 2)) (= (f x) (g w))) (and (= (f y) (g w)) (< x (+ z 1))))"

// TestHybridSpanOrder is the golden trace test: a hybrid run records exactly
// the pipeline phases, once each, in execution order.
func TestHybridSpanOrder(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(hybridFixture, b)
	rec := obs.NewRecorder()
	res := DecideCtx(context.Background(), f, b, Options{Method: Hybrid, Telemetry: rec})
	if res.Status != Valid {
		t.Fatalf("fixture decided %v, want valid", res.Status)
	}
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry not set despite Options.Telemetry")
	}

	want := []string{StageFuncElim, StageAnalyze, StageEncode, "cnf", StageTrans, StageSAT}
	spans := res.Telemetry.Spans
	if len(spans) != len(want) {
		t.Fatalf("got %d spans %v, want exactly %v", len(spans), spanNames(spans), want)
	}
	for i, sp := range spans {
		if sp.Name != want[i] {
			t.Fatalf("span %d is %q, want %q (full order %v)", i, sp.Name, want[i], spanNames(spans))
		}
		if sp.Unfinished {
			t.Errorf("span %q left unfinished", sp.Name)
		}
		if i > 0 && sp.StartMS < spans[i-1].StartMS {
			t.Errorf("span %q starts before its predecessor", sp.Name)
		}
	}

	// Spot-check the load-bearing attributes.
	if v := spans[1].Attrs["sep_thold"]; v == nil {
		t.Error("analyze span missing sep_thold")
	}
	if v := spans[5].Attrs["verdict"]; v != "UNSAT" {
		t.Errorf("sat span verdict = %v, want UNSAT (valid ⟺ ¬F unsat)", v)
	}

	// The same recorder renders a loadable Chrome trace with those spans.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var traced []string
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Tid == 0 {
			traced = append(traced, ev.Name)
		}
	}
	if len(traced) != len(want) {
		t.Fatalf("trace has pipeline spans %v, want %v", traced, want)
	}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("trace span order %v, want %v", traced, want)
		}
	}
}

func spanNames(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTelemetryOnFailurePaths checks that failed runs still carry a snapshot
// with whatever the pipeline measured before stopping.
func TestTelemetryOnFailurePaths(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(hybridFixture, b)

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res := DecideCtx(ctx, f, b, Options{Method: Hybrid, Telemetry: obs.NewRecorder()})
		if res.Status != Canceled {
			t.Fatalf("status %v, want canceled", res.Status)
		}
		if res.Telemetry == nil || res.Telemetry.Status != "canceled" || res.Telemetry.Error == "" {
			t.Fatalf("snapshot missing or unmarked on cancellation: %+v", res.Telemetry)
		}
	})
	t.Run("resource-out", func(t *testing.T) {
		res := DecideCtx(context.Background(), f, b, Options{
			Method: EIJ, MaxTransClauses: 1, Telemetry: obs.NewRecorder(),
		})
		if res.Status != ResourceOut {
			t.Fatalf("status %v, want resource-out", res.Status)
		}
		snap := res.Telemetry
		if snap == nil || snap.Error == "" {
			t.Fatalf("snapshot missing on budget exhaustion: %+v", snap)
		}
		// The phases that ran before the budget blew are still present.
		names := spanNames(snap.Spans)
		if len(names) == 0 || names[0] != StageFuncElim {
			t.Errorf("partial run lost its spans: %v", names)
		}
	})
}

// TestParallelTelemetry checks the per-worker plumbing end to end: worker
// samples flow from the solver's probes into the snapshot, and the parallel
// breakdown is attached.
func TestParallelTelemetry(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(hybridFixture, b)
	rec := obs.NewRecorder()
	rec.SampleInterval = time.Millisecond
	res := DecideCtx(context.Background(), f, b, Options{
		Method: Hybrid, SolverWorkers: 2, Telemetry: rec,
	})
	if res.Status != Valid {
		t.Fatalf("decided %v, want valid", res.Status)
	}
	snap := res.Telemetry
	if snap.Parallel == nil || snap.Parallel.Workers != 2 || len(snap.Parallel.PerWorker) != 2 {
		t.Fatalf("parallel breakdown %+v, want 2 workers", snap.Parallel)
	}
	if len(snap.Samples) == 0 {
		t.Fatal("no worker samples collected")
	}
	seen := map[int]bool{}
	for _, s := range snap.Samples {
		seen[s.Worker] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("samples cover workers %v, want both 0 and 1", seen)
	}
}

// TestPortfolioTelemetry checks that the racing pipeline adopts the winner's
// child recorder: the returned snapshot carries a portfolio span plus the
// adopted racer's pipeline spans, renamed method included.
func TestPortfolioTelemetry(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse(hybridFixture, b)
	rec := obs.NewRecorder()
	res := DecidePortfolioCtx(context.Background(), f, b, Options{Telemetry: rec})
	if res.Status != Valid {
		t.Fatalf("decided %v, want valid", res.Status)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("no snapshot from portfolio")
	}
	if snap.Method != "PORTFOLIO(HYBRID)" && snap.Method != "PORTFOLIO(SD)" && snap.Method != "PORTFOLIO(EIJ)" {
		t.Errorf("snapshot method %q, want PORTFOLIO(<winner>)", snap.Method)
	}
	names := spanNames(snap.Spans)
	hasPortfolio, hasSAT := false, false
	for _, n := range names {
		if n == "portfolio" {
			hasPortfolio = true
		}
		if n == StageSAT {
			hasSAT = true
		}
	}
	if !hasPortfolio || !hasSAT {
		t.Errorf("portfolio snapshot spans %v, want a portfolio span and the adopted pipeline", names)
	}
}

// BenchmarkDecideTelemetryOff measures the full pipeline with telemetry
// disabled — the baseline the <2% overhead acceptance criterion compares
// against (see BenchmarkDecideTelemetryOn).
func BenchmarkDecideTelemetryOff(bb *testing.B) {
	benchmarkDecide(bb, false)
}

// BenchmarkDecideTelemetryOn is the same pipeline with a recorder attached.
func BenchmarkDecideTelemetryOn(bb *testing.B) {
	benchmarkDecide(bb, true)
}

func benchmarkDecide(bb *testing.B, telemetry bool) {
	b := suf.NewBuilder()
	f := suf.MustParse(hybridFixture, b)
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		opts := Options{Method: Hybrid}
		if telemetry {
			opts.Telemetry = obs.NewRecorder()
		}
		if res := DecideCtx(context.Background(), f, b, opts); res.Status != Valid {
			bb.Fatalf("decided %v", res.Status)
		}
	}
}
