package core_test

import (
	"bytes"
	"context"
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
