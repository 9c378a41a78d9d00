package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"sufsat/internal/faultinject"
)

// randomCNF generates a random k-SAT instance and returns the clause list.
func randomCNF(rng *rand.Rand, nVars, nClauses, width int) [][]Lit {
	clauses := make([][]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		w := 1 + rng.Intn(width)
		c := make([]Lit, 0, w)
		for j := 0; j < w; j++ {
			c = append(c, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}
		clauses = append(clauses, c)
	}
	return clauses
}

func solverFor(nVars int, clauses [][]Lit) *Solver {
	s := newSolverWithVars(nVars)
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return s
}

// TestSolveParallelMatchesSolveRandom cross-checks SolveParallel against the
// sequential solver and the brute-force oracle on ~200 random CNFs, validating
// returned models clause by clause.
func TestSolveParallelMatchesSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		nVars := 5 + rng.Intn(12)
		clauses := randomCNF(rng, nVars, 3+rng.Intn(4*nVars), 3)
		want := bruteForceSat(nVars, clauses)

		seq := solverFor(nVars, clauses)
		seqSt := seq.Solve()
		if (seqSt == Sat) != want {
			t.Fatalf("case %d: sequential Solve = %v, brute force wants sat=%v", i, seqSt, want)
		}

		workers := 2 + rng.Intn(4)
		par := solverFor(nVars, clauses)
		parSt := par.SolveParallel(context.Background(), workers)
		if parSt != seqSt {
			t.Fatalf("case %d: SolveParallel(%d) = %v, Solve = %v", i, workers, parSt, seqSt)
		}
		if parSt == Sat && !modelSatisfies(par.Model(), clauses) {
			t.Fatalf("case %d: SolveParallel model does not satisfy the CNF", i)
		}
		if ps := par.ParallelStats(); ps.Workers != workers || len(ps.PerWorker) != workers {
			t.Fatalf("case %d: ParallelStats = %+v, want %d workers", i, ps, workers)
		}
	}
}

// TestSolveParallelWorkers1Deterministic requires a 1-worker parallel solve
// to reproduce the sequential solver's statistics exactly.
func TestSolveParallelWorkers1Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		nVars := 20 + rng.Intn(20)
		clauses := randomCNF(rng, nVars, 4*nVars, 3)

		seq := solverFor(nVars, clauses)
		seqSt := seq.Solve()

		par := solverFor(nVars, clauses)
		parSt := par.SolveParallel(context.Background(), 1)

		if seqSt != parSt {
			t.Fatalf("case %d: status %v vs %v", i, seqSt, parSt)
		}
		if seq.Stats() != par.Stats() {
			t.Fatalf("case %d: workers=1 stats diverge:\nseq %+v\npar %+v", i, seq.Stats(), par.Stats())
		}
		ps := par.ParallelStats()
		if ps.Workers != 1 || len(ps.PerWorker) != 1 || ps.PerWorker[0].Stats != seq.Stats() {
			t.Fatalf("case %d: per-worker stats diverge: %+v", i, ps)
		}
	}
}

// TestSolveParallelUnsatSharesClauses runs a hard UNSAT instance with enough
// workers that the clause-sharing path is exercised (this is the test the
// -race CI pass leans on).
func TestSolveParallelUnsatSharesClauses(t *testing.T) {
	holes := 7
	if testing.Short() {
		holes = 6
	}
	s := New()
	pigeonhole(s, holes+1, holes)
	if st := s.SolveParallel(context.Background(), 4); st != Unsat {
		t.Fatalf("SolveParallel(pigeonhole-%d) = %v, want UNSAT", holes, st)
	}
	ps := s.ParallelStats()
	if ps.WinnerID < 0 {
		t.Fatalf("no winner recorded: %+v", ps)
	}
	var exported int64
	for _, w := range ps.PerWorker {
		exported += w.Exported
	}
	if exported == 0 {
		t.Fatalf("no clauses were ever exported; sharing path not exercised: %+v", ps)
	}
	// A second call on the now-UNSAT solver short-circuits.
	if st := s.SolveParallel(context.Background(), 4); st != Unsat {
		t.Fatalf("second SolveParallel = %v, want UNSAT", st)
	}
}

// TestSolveParallelCancellationNoLeak cancels a parallel solve of a hard
// instance mid-run and verifies (a) the call returns Unknown/StopCanceled
// promptly and (b) no worker goroutine outlives it.
func TestSolveParallelCancellationNoLeak(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		s := New()
		pigeonhole(s, 11, 10) // far beyond what solves in 10ms
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		done := make(chan Status, 1)
		go func() { done <- s.SolveParallel(ctx, 4) }()
		select {
		case st := <-done:
			if st != Unknown {
				t.Errorf("canceled SolveParallel = %v, want Unknown", st)
			}
			if s.StopReason() != StopCanceled {
				t.Errorf("StopReason = %v, want %v", s.StopReason(), StopCanceled)
			}
		case <-time.After(30 * time.Second):
			t.Error("SolveParallel did not return after cancellation")
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolveParallelCancelBeforeStart verifies a dead context stops the
// portfolio within its first poll interval and never deadlocks the exchange.
func TestSolveParallelCancelBeforeStart(t *testing.T) {
	err := faultinject.LeakCheck(func() {
		s := New()
		pigeonhole(s, 10, 9)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		done := make(chan Status, 1)
		go func() { done <- s.SolveParallel(ctx, 8) }()
		select {
		case st := <-done:
			if st != Unknown {
				t.Errorf("pre-canceled SolveParallel = %v, want Unknown", st)
			}
		case <-time.After(30 * time.Second):
			t.Error("SolveParallel deadlocked on a pre-canceled context")
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolveParallelDeadline propagates a context deadline to every worker.
func TestSolveParallelDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 11, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if st := s.SolveParallel(ctx, 3); st != Unknown {
		t.Fatalf("SolveParallel past deadline = %v, want Unknown", st)
	}
	if s.StopReason() != StopDeadline {
		t.Fatalf("StopReason = %v, want %v", s.StopReason(), StopDeadline)
	}
}

// TestSolveParallelSolverCtxDeadline: a deadline on the solver's own Ctx,
// not on SolveParallel's argument, is still reported as StopDeadline.
func TestSolveParallelSolverCtxDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 11, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.Ctx = ctx
	if st := s.SolveParallel(context.Background(), 3); st != Unknown {
		t.Fatalf("SolveParallel past deadline = %v, want Unknown", st)
	}
	if s.StopReason() != StopDeadline {
		t.Fatalf("StopReason = %v, want %v", s.StopReason(), StopDeadline)
	}
}

// TestSolveParallelConflictBudget gives each worker a tiny conflict budget.
func TestSolveParallelConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 10, 9)
	s.ConflictBudget = 20
	if st := s.SolveParallel(context.Background(), 3); st != Unknown {
		t.Fatalf("SolveParallel under budget = %v, want Unknown", st)
	}
	if s.StopReason() != StopConflictBudget {
		t.Fatalf("StopReason = %v, want %v", s.StopReason(), StopConflictBudget)
	}
}

// TestSolveParallelIncremental interleaves AddClause with parallel solves
// (the lazy-method usage pattern).
func TestSolveParallelIncremental(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(PosLit(0), PosLit(1))
	s.AddClause(NegLit(0), PosLit(2))
	if st := s.SolveParallel(context.Background(), 2); st != Sat {
		t.Fatalf("first solve = %v, want SAT", st)
	}
	// Block models until the instance flips to UNSAT.
	for i := 0; i < 10; i++ {
		m := s.Model()
		block := make([]Lit, 0, len(m))
		for v, val := range m {
			block = append(block, MkLit(v, val))
		}
		if !s.AddClause(block...) {
			return // exhausted: UNSAT reached through blocking clauses
		}
		if st := s.SolveParallel(context.Background(), 2); st == Unsat {
			return
		} else if st != Sat {
			t.Fatalf("enumeration step %d = %v", i, st)
		}
	}
	t.Fatal("model enumeration did not terminate within 2^3 models")
}

// TestExchangeRing exercises the ring buffer directly, including overwrite of
// slow readers and self-filtering.
func TestExchangeRing(t *testing.T) {
	e := &exchange{}
	e.publish(0, [][]Lit{{PosLit(1)}, {PosLit(2)}})
	e.publish(1, [][]Lit{{PosLit(3)}})
	got, cur := e.collect(0, 1)
	if len(got) != 2 || cur != 3 {
		t.Fatalf("collect(self=1) = %d clauses, cursor %d; want 2, 3", len(got), cur)
	}
	// Re-collect from the new cursor: nothing new.
	if again, _ := e.collect(cur, 1); len(again) != 0 {
		t.Fatalf("re-collect returned %d clauses, want 0", len(again))
	}
	// Overflow the ring; a reader at cursor 0 only sees the last window.
	var batch [][]Lit
	for i := 0; i < shareRingCap+100; i++ {
		batch = append(batch, []Lit{PosLit(i % 7)})
	}
	e.publish(2, batch)
	got, _ = e.collect(0, 9)
	if len(got) != shareRingCap {
		t.Fatalf("lagging reader got %d clauses, want ring capacity %d", len(got), shareRingCap)
	}
}

// TestImportClauseSemantics checks level-0 simplification on import: units
// propagate, satisfied clauses are dropped, contradictions refute.
func TestImportClauseSemantics(t *testing.T) {
	s := newSolverWithVars(4)
	s.AddClause(PosLit(0)) // level-0 fact: v0
	if st := s.importClause([]Lit{PosLit(0), PosLit(1)}); st != Unknown {
		t.Fatalf("import of satisfied clause = %v", st)
	}
	if st := s.importClause([]Lit{NegLit(0), PosLit(2)}); st != Unknown {
		t.Fatalf("import of reducible clause = %v", st)
	}
	if s.value(PosLit(2)) != lTrue {
		t.Fatal("import did not propagate the reduced unit v2")
	}
	if st := s.importClause([]Lit{NegLit(0)}); st != Unsat {
		t.Fatalf("import of contradicting unit = %v, want UNSAT", st)
	}
}
