package core_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/boolexpr"
	"sufsat/internal/core"
	"sufsat/internal/funcelim"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
)

// TestAssertQueryMatchesClauseLoop pins the SAT query DecideCtx builds
// through the flat transitivity set and AssertQuery, byte for byte in
// DIMACS, to the one the pointer-based clause list gives when each literal
// is resolved by name: same clauses, same SAT variable numbering, hence the
// same search. (External test package: internal/bench imports core.)
func TestAssertQueryMatchesClauseLoop(t *testing.T) {
	for _, name := range []string{"ooo.inv-2", "dlx-2", "cvt-2", "elf-3"} {
		bm, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		var got bytes.Buffer
		f, b := bm.Build()
		res := core.DecideCtx(context.Background(), f, b, core.Options{Method: core.EIJ, DumpCNF: &got})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}

		// The same pipeline by hand, asserting F_trans the pointer-based way.
		f, b = bm.Build()
		elim := funcelim.Eliminate(f, b)
		info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
		if err != nil {
			t.Fatal(err)
		}
		bb := boolexpr.NewBuilder()
		e := perconstraint.NewEncoder(info, b, bb)
		bvar, err := e.Walker().Encode(info.Formula)
		if err != nil {
			t.Fatal(err)
		}
		clauses, err := e.TransClauseList()
		if err != nil {
			t.Fatal(err)
		}
		s := sat.New()
		cnf := boolexpr.AssertTrue(bb.Not(bvar), s)
		for _, cl := range clauses {
			var lits []sat.Lit
			for _, tl := range cl {
				l, ok := cnf.VarLits[tl.Var.Name()]
				if !ok {
					l = sat.PosLit(s.NewVar())
					cnf.VarLits[tl.Var.Name()] = l
				}
				if tl.Neg {
					l = l.Not()
				}
				lits = append(lits, l)
			}
			s.AddClause(lits...)
		}
		var want bytes.Buffer
		if err := s.WriteDIMACS(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: DecideCtx query (%d bytes) differs from the clause-loop query (%d bytes)",
				name, got.Len(), want.Len())
		}
	}
}

// TestDecideStreamsTransitivity pins that the decide path asserts F_trans
// while generating it instead of collecting it first: on ooo.inv-3 (548,006
// F_trans clauses; the solver is refuted at level 0 early in the stream and
// keeps none after that) DecideCtx allocates at most 12 bytes per clause.
// Collecting F_trans into a TransSet before asserting it costs about 45.
func TestDecideStreamsTransitivity(t *testing.T) {
	bm, ok := bench.ByName("ooo.inv-3")
	if !ok {
		t.Fatal("no benchmark ooo.inv-3")
	}
	f, b := bm.Build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := core.DecideCtx(context.Background(), f, b, core.Options{})
	runtime.ReadMemStats(&after)
	if res.Status != core.Valid {
		t.Fatalf("ooo.inv-3: %v (%v), want valid", res.Status, res.Err)
	}
	clauses := res.Stats.EIJStats.TransConstraints
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes, %.2f per clause", bytes, float64(bytes)/float64(clauses))
	if perClause := float64(bytes) / float64(clauses); perClause > 12 {
		t.Errorf("DecideCtx allocated %d bytes for %d F_trans clauses: %.1f per clause, want <= 12", bytes, clauses, perClause)
	}
}

// TestDemotionRestartsQuery checks the EIJ→SD ladder under streaming. On
// dlx-2 with a budget of 1,000 transitivity clauses, Hybrid demotes the
// third EIJ class after the first attempt streamed 1,000 clauses into its
// solver, some of them that class's. The query DecideCtx dumps must be the
// one built directly with that class demoted from the start, so nothing the
// failed attempt asserted survives; OpenSession must build the same query.
func TestDemotionRestartsQuery(t *testing.T) {
	const budget = 1000
	bm, ok := bench.ByName("dlx-2")
	if !ok {
		t.Fatal("no benchmark dlx-2")
	}
	opts := core.Options{MaxTransClauses: budget}

	var got bytes.Buffer
	f, b := bm.Build()
	withDump := opts
	withDump.DumpCNF = &got
	res := core.DecideCtx(context.Background(), f, b, withDump)
	if res.Status != core.Valid || res.Stats.DemotedClasses != 1 {
		t.Fatalf("DecideCtx: %v (%v) with %d demoted classes, want valid with 1", res.Status, res.Err, res.Stats.DemotedClasses)
	}
	// The classes that stayed EIJ emit fewer clauses than the budget, so the
	// failed attempt streamed some of the demoted class's clauses.
	if kept := res.Stats.EIJStats.TransConstraints; kept >= budget {
		t.Fatalf("the EIJ classes kept emit %d clauses, want fewer than the budget %d", kept, budget)
	}

	// The class whose generation exhausts the budget, from a first attempt
	// by hand.
	f, b = bm.Build()
	elim := funcelim.Eliminate(f, b)
	info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
	if err != nil {
		t.Fatal(err)
	}
	bvar, eij, err := core.EncodeDemoted(info, b, boolexpr.NewBuilder(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var be *perconstraint.BudgetError
	if _, err := core.AssertQuery(sat.New(), bvar, eij, nil); !errors.As(err, &be) {
		t.Fatalf("first attempt: %v, want a transitivity budget error", err)
	}

	// The query built directly with that class demoted.
	bvar, eij, err = core.EncodeDemoted(info, b, boolexpr.NewBuilder(), opts, map[*sep.Class]bool{be.Class: true})
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	if _, err := core.AssertQuery(s, bvar, eij, nil); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := s.WriteDIMACS(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("DecideCtx query (%d bytes) differs from the query built with the demotion pre-filled (%d bytes)",
			got.Len(), want.Len())
	}

	f, b = bm.Build()
	sess, err := core.OpenSession(context.Background(), f, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sres := sess.Decide(context.Background())
	if sres.Status != core.Valid {
		t.Fatalf("session: %v (%v), want valid", sres.Status, sres.Err)
	}
	if sres.Stats.SAT.Vars != res.Stats.SAT.Vars || sres.Stats.CNFClauses != res.Stats.CNFClauses ||
		sres.Stats.DemotedClasses != res.Stats.DemotedClasses {
		t.Errorf("session: %d vars, %d clauses, %d demoted; DecideCtx: %d, %d, %d",
			sres.Stats.SAT.Vars, sres.Stats.CNFClauses, sres.Stats.DemotedClasses,
			res.Stats.SAT.Vars, res.Stats.CNFClauses, res.Stats.DemotedClasses)
	}
}

// BenchmarkDecideInvariant decides ooo.inv-3, the middle formula of the
// paper-invariant workload, whose cost is generating and asserting F_trans.
func BenchmarkDecideInvariant(b *testing.B) {
	bm, ok := bench.ByName("ooo.inv-3")
	if !ok {
		b.Fatal("no benchmark ooo.inv-3")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, sb := bm.Build()
		b.StartTimer()
		if res := core.DecideCtx(context.Background(), f, sb, core.Options{}); res.Status != core.Valid {
			b.Fatalf("ooo.inv-3: %v (%v), want valid", res.Status, res.Err)
		}
	}
}
