package core_test

import (
	"context"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/core"
	"sufsat/internal/suf"
)

// TestSearchCountsPinned pins the SAT query and search HYBRID runs with one
// worker on seven formulas: variables, problem clauses, conflicts,
// propagations and decisions. Each formula is decided from its printed text,
// as the perf ledger decides it (the builder's node order, and so the
// variable numbering, follows the text). A change to the solver's data path
// must leave every count as it is; a change to the search or the query
// updates them on purpose.
func TestSearchCountsPinned(t *testing.T) {
	want := []struct {
		name                        string
		vars, clauses               int
		conflicts, props, decisions int64
	}{
		{"dlx-2", 464, 2742, 26, 3018, 601},
		{"lsu-2", 1628, 63546, 45, 24353, 4654},
		{"ooo.t-2", 1873, 59559, 58, 25524, 6424},
		{"ccp-4", 3727, 11539, 620, 172432, 4988},
		{"elf-5", 4473, 12827, 973, 477901, 8878},
		{"lsu-4", 9195, 44849, 2516, 1183013, 16866},
		{"cvt-bad", 72, 160, 0, 72, 38},
	}
	byName := map[string]bench.Benchmark{}
	for _, bm := range append(bench.Suite(), bench.InvalidVariants()...) {
		byName[bm.Name] = bm
	}
	for _, w := range want {
		bm, ok := byName[w.name]
		if !ok {
			t.Fatalf("no benchmark %q", w.name)
		}
		built, _ := bm.Build()
		b := suf.NewBuilder()
		f, err := suf.Parse(built.String(), b)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := core.DecideCtx(context.Background(), f, b, core.Options{SolverWorkers: 1})
		switch {
		case bm.Valid && res.Status != core.Valid:
			t.Errorf("%s: %v (%v), want valid", w.name, res.Status, res.Err)
		case !bm.Valid && (res.Status != core.Invalid || res.Model == nil || suf.EvalBool(f, res.Model.Interp())):
			t.Errorf("%s: %v (%v), want invalid with a model that falsifies the formula", w.name, res.Status, res.Err)
		}
		st := res.Stats.SAT
		if st.Vars != w.vars || res.Stats.CNFClauses != w.clauses || st.Conflicts != w.conflicts ||
			st.Propagations != w.props || st.Decisions != w.decisions {
			t.Errorf("%s: vars/clauses/conflicts/propagations/decisions = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
				w.name, st.Vars, res.Stats.CNFClauses, st.Conflicts, st.Propagations, st.Decisions,
				w.vars, w.clauses, w.conflicts, w.props, w.decisions)
		}
	}
}
