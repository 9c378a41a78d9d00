package sat

import (
	"math/rand"
	"testing"
)

func TestArenaAllocAndAccess(t *testing.T) {
	var ca clauseArena
	r1 := ca.alloc([]Lit{PosLit(0), NegLit(1), PosLit(2)}, false)
	r2 := ca.alloc([]Lit{NegLit(3), PosLit(4)}, true)

	if ca.size(r1) != 3 || ca.size(r2) != 2 {
		t.Fatalf("sizes = %d, %d", ca.size(r1), ca.size(r2))
	}
	if ca.learnt(r1) || !ca.learnt(r2) {
		t.Fatalf("learnt flags wrong: %v %v", ca.learnt(r1), ca.learnt(r2))
	}
	if got := ca.lits(r1); got[0] != PosLit(0) || got[1] != NegLit(1) || got[2] != PosLit(2) {
		t.Fatalf("lits(r1) = %v", got)
	}
	ca.setAct(r2, 3.5)
	if ca.act(r2) != 3.5 {
		t.Fatalf("act(r2) = %v", ca.act(r2))
	}
	// The lits slice aliases the arena: in-place swaps persist.
	l := ca.lits(r1)
	l[0], l[2] = l[2], l[0]
	if got := ca.lits(r1); got[0] != PosLit(2) {
		t.Fatalf("swap did not write through: %v", got)
	}
	// Appending to the returned slice must not clobber the next clause.
	_ = append(ca.lits(r1), PosLit(9))
	if ca.size(r2) != 2 || ca.lits(r2)[0] != NegLit(3) {
		t.Fatalf("append through lits() corrupted the next clause: %v", ca.lits(r2))
	}
}

func TestArenaFreeAndGCThreshold(t *testing.T) {
	var ca clauseArena
	r := ca.alloc([]Lit{PosLit(0), PosLit(1)}, true)
	if ca.wasted != 0 || ca.shouldGC() {
		t.Fatal("fresh arena should have no waste")
	}
	ca.free(r)
	if ca.wasted != 2+hdrWords {
		t.Fatalf("wasted = %d, want %d", ca.wasted, 2+hdrWords)
	}
}

// TestGarbageCollectPreservesSearchState drives a solver hard enough that
// reduceDB frees clauses and garbageCollect compacts the arena, then checks
// the solver still answers correctly and consistently afterwards.
func TestGarbageCollectPreservesSearchState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		nVars := 60 + rng.Intn(40)
		clauses := randomCNF(rng, nVars, 5*nVars, 3)
		s := solverFor(nVars, clauses)
		st := s.Solve()
		if st == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("case %d: model invalid", i)
		}
		// Force a compaction at level 0 regardless of the heuristic, then
		// re-solve after adding a fresh clause; the answer must not change
		// from arena relocation.
		s.garbageCollect()
		if s.ca.wasted != 0 {
			t.Fatalf("case %d: wasted = %d after GC", i, s.ca.wasted)
		}
		st2 := s.Solve()
		if st2 != st {
			t.Fatalf("case %d: status changed after GC: %v → %v", i, st, st2)
		}
		if st2 == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("case %d: model invalid after GC", i)
		}
	}
}

// TestGarbageCollectUnderLoad checks that the wasted-space heuristic actually
// fires and reclaims memory on a learning-heavy UNSAT instance.
func TestGarbageCollectUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("learning-heavy instance")
	}
	s := New()
	pigeonhole(s, 9, 8)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("pigeonhole = %v", st)
	}
	// After an UNSAT proof with thousands of conflicts the arena must not
	// have grown unboundedly relative to its live contents.
	live := 0
	for _, r := range s.clauses {
		live += s.ca.size(r) + hdrWords
	}
	for _, r := range s.learnts {
		live += s.ca.size(r) + hdrWords
	}
	if len(s.ca.data) > 8*live+1<<16 {
		t.Fatalf("arena grew to %d words for %d live words; GC not effective", len(s.ca.data), live)
	}
}

// TestAddClauseAllocs pins clause intake at the solver: AddClause simplifies
// into a reused scratch slice, so adding clauses allocates only when the
// arena, the clause list or a watch list grows. Over 50 variables every
// watch list keeps doubling, so that growth amortizes to almost nothing.
func TestAddClauseAllocs(t *testing.T) {
	const nVars, perRun = 50, 10000
	rng := rand.New(rand.NewSource(3))
	clauses := make([][3]Lit, perRun)
	for i := range clauses {
		perm := rng.Perm(nVars)
		for j := range clauses[i] {
			clauses[i][j] = MkLit(perm[j], rng.Intn(2) == 0)
		}
	}
	s := New()
	for range nVars {
		s.NewVar()
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := range clauses {
			if !s.AddClause(clauses[i][:]...) {
				t.Fatal("clause rejected")
			}
		}
	})
	if perClause := allocs / perRun; perClause > 0.05 {
		t.Errorf("%.0f allocations per %d clauses: %.3f per clause, want <= 0.05", allocs, perRun, perClause)
	}
}
