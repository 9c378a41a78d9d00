package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// bruteForceSat checks satisfiability of a clause set over nVars variables by
// exhaustive enumeration. It is the oracle for randomized tests.
func bruteForceSat(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func modelSatisfies(model []bool, clauses [][]Lit) bool {
	for _, c := range clauses {
		sat := false
		for _, l := range c {
			val := model[l.Var()]
			if l.Neg() {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestLitEncoding(t *testing.T) {
	l := PosLit(5)
	if l.Var() != 5 || l.Neg() {
		t.Fatalf("PosLit(5) = %v", l)
	}
	nl := l.Not()
	if nl.Var() != 5 || !nl.Neg() {
		t.Fatalf("Not(PosLit(5)) = %v", nl)
	}
	if nl.Not() != l {
		t.Fatalf("double negation broken")
	}
	if MkLit(3, true) != NegLit(3) || MkLit(3, false) != PosLit(3) {
		t.Fatalf("MkLit inconsistent with Pos/NegLit")
	}
}

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty solver: got %v, want Sat", got)
	}
}

func TestUnitClauses(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(PosLit(0))
	s.AddClause(NegLit(1))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	m := s.Model()
	if !m[0] || m[1] {
		t.Fatalf("model = %v, want [true false]", m)
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(PosLit(0))
	if ok := s.AddClause(NegLit(0)); ok {
		t.Fatalf("AddClause of contradictory unit returned true")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	if ok := s.AddClause(); ok {
		t.Fatalf("empty clause accepted")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
}

func TestTautologyIsIgnored(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(PosLit(0), NegLit(0))
	s.AddClause(PosLit(1), PosLit(1), NegLit(0), PosLit(1))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	if s.Stats().Clauses != 1 {
		t.Fatalf("clauses = %d, want 1 (tautology dropped, duplicates merged)", s.Stats().Clauses)
	}
}

// pigeonhole encodes PHP(p pigeons, h holes): each pigeon in some hole, no
// two pigeons share a hole. UNSAT iff p > h.
func pigeonhole(s *Solver, p, h int) {
	vars := make([][]Var, p)
	for i := range vars {
		vars[i] = make([]Var, h)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		cl := make([]Lit, h)
		for j := 0; j < h; j++ {
			cl[j] = PosLit(vars[i][j])
		}
		s.AddClause(cl...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(NegLit(vars[i1][j]), NegLit(vars[i2][j]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(5,4): got %v, want Unsat", got)
	}
	if s.Stats().ConflictClauses == 0 {
		t.Fatalf("expected conflict clauses to be learnt")
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 4)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(4,4): got %v, want Sat", got)
	}
}

func randomClauses(rng *rand.Rand, nVars, nClauses, width int) [][]Lit {
	cs := make([][]Lit, nClauses)
	for i := range cs {
		w := 1 + rng.Intn(width)
		c := make([]Lit, w)
		for k := range c {
			c[k] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		cs[i] = c
	}
	return cs
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(5*nVars)
		clauses := randomClauses(rng, nVars, nClauses, 3)
		want := bruteForceSat(nVars, clauses)

		s := newSolverWithVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		if want && got != Sat {
			t.Fatalf("iter %d: got %v, want Sat\nclauses: %v", iter, got, clauses)
		}
		if !want && got != Unsat {
			t.Fatalf("iter %d: got %v, want Unsat\nclauses: %v", iter, got, clauses)
		}
		if got == Sat && !modelSatisfies(s.Model(), clauses) {
			t.Fatalf("iter %d: model does not satisfy clauses", iter)
		}
	}
}

func TestIncrementalModelEnumeration(t *testing.T) {
	// Enumerate all models of a formula by blocking clauses; the count must
	// match brute force.
	const nVars = 6
	rng := rand.New(rand.NewSource(99))
	clauses := randomClauses(rng, nVars, 8, 3)

	wantCount := 0
	for m := 0; m < 1<<nVars; m++ {
		model := make([]bool, nVars)
		for v := 0; v < nVars; v++ {
			model[v] = m>>uint(v)&1 == 1
		}
		if modelSatisfies(model, clauses) {
			wantCount++
		}
	}

	s := newSolverWithVars(nVars)
	for _, c := range clauses {
		s.AddClause(c...)
	}
	got := 0
	for s.Solve() == Sat {
		got++
		if got > 1<<nVars {
			t.Fatalf("enumeration did not terminate")
		}
		m := s.Model()
		block := make([]Lit, nVars)
		for v := 0; v < nVars; v++ {
			block[v] = MkLit(v, m[v]) // negate current model
		}
		s.AddClause(block...)
	}
	if got != wantCount {
		t.Fatalf("model count = %d, want %d", got, wantCount)
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7) // hard enough to exceed a tiny budget
	s.ConflictBudget = 5
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v, want Unknown under tiny conflict budget", got)
	}
}

func TestDeadline(t *testing.T) {
	s := New()
	pigeonhole(s, 10, 9)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second)) // already expired
	defer cancel()
	s.Ctx = ctx
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v, want Unknown with expired deadline", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 4)
	s.Solve()
	st := s.Stats()
	if st.Vars != 20 {
		t.Errorf("Vars = %d, want 20", st.Vars)
	}
	if st.Clauses == 0 || st.Decisions == 0 || st.Propagations == 0 || st.Conflicts == 0 {
		t.Errorf("expected nonzero counters, got %+v", st)
	}
	if st.ConflictClauses > st.Conflicts {
		t.Errorf("ConflictClauses (%d) > Conflicts (%d)", st.ConflictClauses, st.Conflicts)
	}
}

func TestLubySequence(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(2, i); got != w {
			t.Fatalf("luby(2,%d) = %v, want %v", i, got, w)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatalf("Status.String broken: %v %v %v", Sat, Unsat, Unknown)
	}
}

func TestAddClauseAfterSolve(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(PosLit(0), PosLit(1))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	s.AddClause(NegLit(0))
	s.AddClause(NegLit(1))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat after adding blocking units", got)
	}
}

func TestLargeRandomSatisfiable(t *testing.T) {
	// A satisfiable planted instance: pick a hidden model, generate clauses
	// that it satisfies.
	rng := rand.New(rand.NewSource(7))
	const nVars = 200
	hidden := make([]bool, nVars)
	for i := range hidden {
		hidden[i] = rng.Intn(2) == 0
	}
	s := newSolverWithVars(nVars)
	var clauses [][]Lit
	for i := 0; i < 800; i++ {
		c := make([]Lit, 3)
		for {
			for k := range c {
				c[k] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			if modelSatisfies(hidden, [][]Lit{c}) {
				break
			}
		}
		clauses = append(clauses, c)
		s.AddClause(c...)
	}
	if s.Solve() != Sat {
		t.Fatal("planted instance must be Sat")
	}
	if !modelSatisfies(s.Model(), clauses) {
		t.Fatal("model check failed")
	}
}

func TestSolveAfterUnsatStaysUnsat(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(PosLit(0))
	s.AddClause(NegLit(0))
	if s.Solve() != Unsat {
		t.Fatal("want Unsat")
	}
	if s.Solve() != Unsat {
		t.Fatal("repeated Solve must stay Unsat")
	}
	if s.AddClause(PosLit(0)) {
		t.Fatal("AddClause after Unsat must report false")
	}
}

func TestReduceDBKeepsCorrectness(t *testing.T) {
	// Large enough pigeonhole run to trigger learnt-clause reduction (the
	// learnt DB cap starts at 1000); the answer must stay correct.
	s := New()
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7) = %v, want Unsat", got)
	}
	if s.Stats().ConflictClauses < 1000 {
		t.Skip("instance solved before the reduction threshold; nothing to check")
	}
}

// TestInterleavedCallsAgainstBruteForce drives each solver through a random
// sequence of AddClause batches (units included) and Solve, SolveAssume,
// SolveParallel and SolveAssumeParallel calls, and checks every verdict and
// model against brute force over the clauses added so far plus the
// assumptions. AddClause only stores a clause, so each call meets clauses
// whose watchers are still pending on a different path: a level-0 unit,
// the solve loop, or the portfolio's clone.
func TestInterleavedCallsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 150
	if testing.Short() {
		cases = 40
	}
	randLit := func(nVars int) Lit { return MkLit(rng.Intn(nVars), rng.Intn(2) == 0) }
	for i := 0; i < cases; i++ {
		nVars := 4 + rng.Intn(9)
		s := newSolverWithVars(nVars)
		var clauses [][]Lit
		for step := 0; step < 10; step++ {
			for range rng.Intn(nVars) {
				// One clause in eight is a unit, three are binary.
				w := 3
				switch r := rng.Intn(8); {
				case r == 0:
					w = 1
				case r <= 3:
					w = 2
				}
				c := make([]Lit, w)
				for k := range c {
					c[k] = randLit(nVars)
				}
				clauses = append(clauses, c)
				if !s.AddClause(c...) && bruteForceSat(nVars, clauses) {
					t.Fatalf("case %d step %d: AddClause(%v) refuted a satisfiable CNF", i, step, c)
				}
			}
			var assumps []Lit
			if rng.Intn(2) == 0 {
				for range 1 + rng.Intn(3) {
					assumps = append(assumps, randLit(nVars))
				}
			}
			var st Status
			path := rng.Intn(3)
			switch path {
			case 0:
				st = s.SolveAssume(assumps...)
			case 1:
				st = s.SolveAssumeParallel(context.Background(), 2+rng.Intn(2), assumps...)
			default:
				st = s.SolveAssumeParallel(context.Background(), 1, assumps...)
			}
			query := append([][]Lit(nil), clauses...)
			for _, a := range assumps {
				query = append(query, []Lit{a})
			}
			want := bruteForceSat(nVars, query)
			if (st == Sat) != want || st == Unknown {
				t.Fatalf("case %d step %d path %d: %v under %v, brute force wants sat=%v", i, step, path, st, assumps, want)
			}
			if st == Sat && !modelSatisfies(s.Model(), query) {
				t.Fatalf("case %d step %d path %d: model falsifies the clauses or assumptions", i, step, path)
			}
		}
	}
}

// TestBinaryWatchEntries checks the watch-entry invariant propagation relies
// on: the entries of a binary clause carry binFlag and the clause's other
// literal as blocker, those of a longer clause do not carry the flag, and
// garbageCollect and clone keep both.
func TestBinaryWatchEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newSolverWithVars(40)
	for range 160 {
		c := []Lit{MkLit(rng.Intn(20), rng.Intn(2) == 0), MkLit(20+rng.Intn(20), rng.Intn(2) == 0)}
		if rng.Intn(2) == 0 {
			c = append(c, MkLit(rng.Intn(40), rng.Intn(2) == 0))
		}
		s.AddClause(c...)
	}
	check := func(what string, s *Solver) {
		t.Helper()
		entries := 0
		for l, ws := range s.watches {
			for _, w := range ws {
				entries++
				r := w.cref &^ binFlag
				lits := s.ca.lits(r)
				if (w.cref&binFlag != 0) != (len(lits) == 2) {
					t.Fatalf("%s: entry %+v of a %d-literal clause", what, w, len(lits))
				}
				if w.cref&binFlag != 0 {
					watched := Lit(l).Not()
					if (lits[0] != watched || lits[1] != w.blocker) && (lits[1] != watched || lits[0] != w.blocker) {
						t.Fatalf("%s: binary entry %+v in the list of %v for clause %v", what, w, Lit(l), lits)
					}
				}
			}
		}
		if entries == 0 {
			t.Fatalf("%s: no watch entries", what)
		}
	}
	// Before a propagation the clauses are stored but not watched.
	for _, ws := range s.watches {
		if len(ws) != 0 {
			t.Fatal("AddClause attached a clause before any propagation")
		}
	}
	s.Solve()
	check("after Solve", s)
	s.garbageCollect()
	check("after garbageCollect", s)
	check("clone", s.clone())
}
