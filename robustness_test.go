package sufsat

import (
	"context"
	"errors"
	"testing"
	"time"
)

// clique builds the dense-order stress formula used to exercise budgets.
func clique(b *Builder, n int) Formula {
	f := b.True()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vi, vj := b.Int(string(rune('a'+i))), b.Int(string(rune('a'+j)))
			f = f.And(b.Lt(vi, vj).Or(b.Lt(vj, vi)))
		}
	}
	return f
}

// TestDecideContextPanicContainment: a panic inside the pipeline must surface
// as an Error result with the captured stack, never as a process crash.
func TestDecideContextPanicContainment(t *testing.T) {
	b := NewBuilder()
	f := b.Eq(b.Int("x"), b.Int("x"))
	for _, m := range []Method{MethodHybrid, MethodSD, MethodEIJ, MethodPortfolio} {
		res := DecideContext(context.Background(), f, Options{
			Method: m,
			Hook:   func(stage string) error { panic("kaboom at " + stage) },
		})
		if res.Status != Error {
			t.Errorf("%v: got %v, want Error from a contained panic", m, res.Status)
			continue
		}
		var pe *PanicError
		if !errors.As(res.Err, &pe) || len(pe.Stack) == 0 {
			t.Errorf("%v: Err = %v, want *PanicError with a captured stack", m, res.Err)
		}
	}
}

// TestDecideContextCanceled: an already-cancelled context aborts every method
// with the Canceled status.
func TestDecideContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBuilder()
	f := clique(b, 8)
	for _, m := range []Method{MethodHybrid, MethodSD, MethodEIJ, MethodLazy, MethodSVC, MethodPortfolio} {
		res := DecideContext(ctx, f, Options{Method: m})
		if res.Status != Canceled {
			t.Errorf("%v: got %v (%v), want Canceled", m, res.Status, res.Err)
		}
	}
}

// TestCheckSatContextCanceled: the satisfiability wrapper propagates the
// cancellation error.
func TestCheckSatContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBuilder()
	sat, _, err := CheckSatContext(ctx, clique(b, 8), Options{})
	if sat || err == nil {
		t.Fatalf("got (%v, %v), want cancellation error", sat, err)
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want a cancellation sentinel", err)
	}
}

// TestDegradationSurfacesInStats: the facade reports the per-class EIJ→SD
// fallback and still reaches a verdict.
func TestDegradationSurfacesInStats(t *testing.T) {
	b := NewBuilder()
	f := clique(b, 10).And(b.Lt(b.Int("a"), b.Int("b"))).Implies(b.Lt(b.Int("a"), b.Int("b")))
	res := Decide(f, Options{SepThreshold: 1 << 30, MaxTransClauses: 10})
	if res.Status != Valid {
		t.Fatalf("got %v (%v), want Valid via degradation", res.Status, res.Err)
	}
	if res.Stats.DemotedClasses != 1 {
		t.Errorf("DemotedClasses = %d, want 1", res.Stats.DemotedClasses)
	}

	res = Decide(f, Options{SepThreshold: 1 << 30, MaxTransClauses: 10, NoDegrade: true})
	if res.Status != ResourceOut {
		t.Fatalf("NoDegrade: got %v (%v), want ResourceOut", res.Status, res.Err)
	}
}

// TestBudgetSentinelsExported: budget exhaustion classifies as ResourceOut
// with the matching exported sentinel.
func TestBudgetSentinelsExported(t *testing.T) {
	b := NewBuilder()
	f := clique(b, 6)
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"trans", Options{Method: MethodEIJ, MaxTransClauses: 1}, ErrTransBudget},
		{"cnf", Options{MaxCNFClauses: 1}, ErrClauseBudget},
		{"memory", Options{MaxMemoryEstimate: 1}, ErrMemoryBudget},
	}
	for _, c := range cases {
		res := Decide(f, c.opts)
		if res.Status != ResourceOut || !errors.Is(res.Err, c.want) {
			t.Errorf("%s: got (%v, %v), want ResourceOut with %v", c.name, res.Status, res.Err, c.want)
		}
	}
}

// TestUnknownMethodIsError: a bogus method is an Error, not a fake Timeout.
func TestUnknownMethodIsError(t *testing.T) {
	b := NewBuilder()
	res := Decide(b.True(), Options{Method: Method(99)})
	if res.Status != Error || res.Err == nil {
		t.Fatalf("got (%v, %v), want Error", res.Status, res.Err)
	}
}

// TestStatusStrings covers the full taxonomy rendering used by the CLIs.
func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		Valid:       "valid",
		Invalid:     "invalid",
		Timeout:     "timeout",
		Canceled:    "canceled",
		ResourceOut: "resource-out",
		Error:       "error",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
		if s.Definitive() != (s == Valid || s == Invalid) {
			t.Errorf("%v.Definitive() wrong", s)
		}
	}
}

// TestStopsCarrySentinels: whichever method runs and wherever it stops, a
// deadline is a Timeout whose Err wraps ErrDeadline and a cancellation a
// Canceled whose Err wraps ErrCanceled, with the context's own error still
// in the chain.
func TestStopsCarrySentinels(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name     string
		ctx      context.Context
		timeout  time.Duration
		status   Status
		sentinel error
		ctxErr   error
	}{
		{"timeout", context.Background(), time.Nanosecond, Timeout, ErrDeadline, context.DeadlineExceeded},
		{"canceled", canceled, 0, Canceled, ErrCanceled, context.Canceled},
	}
	for _, m := range []Method{MethodHybrid, MethodSD, MethodEIJ, MethodLazy, MethodSVC, MethodPortfolio} {
		for _, c := range cases {
			b := NewBuilder()
			res := DecideContext(c.ctx, clique(b, 8), Options{Method: m, Timeout: c.timeout})
			if res.Status != c.status || !errors.Is(res.Err, c.sentinel) || !errors.Is(res.Err, c.ctxErr) {
				t.Errorf("%v %s: got (%v, %v), want %v wrapping %v and %v",
					m, c.name, res.Status, res.Err, c.status, c.sentinel, c.ctxErr)
			}
		}
	}
}
