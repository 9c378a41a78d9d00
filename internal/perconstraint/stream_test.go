package perconstraint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/boolexpr"
	"sufsat/internal/core"
	"sufsat/internal/enc"
	"sufsat/internal/funcelim"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sep"
	"sufsat/internal/smalldomain"
	"sufsat/internal/suf"
)

// These tests live outside package perconstraint because the benchmark
// suite they run on (internal/bench) imports it.

// analyzed is a suite formula after function elimination and separation
// analysis, ready to encode any number of times.
type analyzed struct {
	info *sep.Info
	b    *suf.Builder
}

func analyze(t testing.TB, name string) analyzed {
	t.Helper()
	for _, bm := range append(bench.Suite(), bench.InvalidVariants()...) {
		if bm.Name != name {
			continue
		}
		f, b := bm.Build()
		elim := funcelim.Eliminate(f, b)
		info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
		if err != nil {
			t.Fatal(err)
		}
		return analyzed{info, b}
	}
	t.Fatalf("no benchmark %q", name)
	return analyzed{}
}

// encode encodes a fresh Boolean formula the way core.DecideCtx does under
// HYBRID at the default SEP_THOLD: atoms of classes above the threshold go
// to the SD encoder, all others to the returned EIJ encoder.
func (a analyzed) encode(t testing.TB) *perconstraint.Encoder {
	bb := boolexpr.NewBuilder()
	sd := smalldomain.NewEncoder(a.info, a.b, bb)
	eij := perconstraint.NewEncoder(a.info, a.b, bb)
	w := enc.NewWalker(bb, func(at *suf.BoolExpr) (*boolexpr.Node, error) {
		t1, t2 := at.Terms()
		for _, term := range [2]*suf.IntExpr{t1, t2} {
			for _, g := range sep.Leaves(term) {
				if cl := a.info.ClassOf[g.Var]; cl != nil && cl.SepCnt > core.DefaultSepThreshold {
					return sd.EncodeAtom(at)
				}
			}
		}
		return eij.EncodeAtom(at)
	})
	sd.SetWalker(w)
	eij.SetWalker(w)
	if _, err := w.Encode(a.info.Formula); err != nil {
		t.Fatal(err)
	}
	return eij
}

// TestTransStreamPinned pins F_trans, clause by clause, on suite formulas:
// the SHA-256 of the stream (each literal as an optional "-", the variable
// name and a space, each clause ended by a newline) and the Stats are the
// values the string-keyed generator produced before TransSet replaced it.
func TestTransStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats perconstraint.Stats
		sha   string
	}{
		{"ooo.inv-1", perconstraint.Stats{PredVars: 43, DerivedVars: 197, TransConstraints: 3643},
			"3770188a6667a7df4b817bb04e5ce8ec00e7041e7b9082fbf17d52ddd756e70a"},
		{"ooo.inv-2", perconstraint.Stats{PredVars: 79, DerivedVars: 1447, TransConstraints: 254397},
			"d8253a6908d431fad7d03b4fb513fdcbb40d4f68dd73c2da4fff50d51042afb4"},
		{"ooo.inv-3", perconstraint.Stats{PredVars: 104, DerivedVars: 2136, TransConstraints: 548006},
			"9c8e65fdbbb88fe2f4aa71c209a8b01fe81581e56c93cd3fbedbe3e3b927337a"},
		{"dlx-3", perconstraint.Stats{PredVars: 185, DerivedVars: 822, TransConstraints: 28403},
			"3317a081eb12d22d2520a166868f55c5b99d1e59c828e3c29b5466a38988b285"},
		{"ooo.t-2", perconstraint.Stats{PredVars: 223, DerivedVars: 1304, TransConstraints: 58961},
			"87bf0ca117d54f67bd726469c29b36041468634dd4ad4b0d069d7317d23d6534"},
		{"lsu-bad", perconstraint.Stats{PredVars: 134, DerivedVars: 153, TransConstraints: 2654},
			"34a06fc8dc1ea8c586a83f1598b11a7a20818872032ddbc754ed925e72ec26d4"},
	} {
		e := analyze(t, tc.name).encode(t)
		ts, err := e.TransSet()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		for i := 0; i < ts.Len(); i++ {
			for _, code := range ts.Clause(i) {
				l := ts.Lit(code)
				if l.Neg {
					h.Write([]byte{'-'})
				}
				h.Write([]byte(l.Var.Name()))
				h.Write([]byte{' '})
			}
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
			t.Errorf("%s: stream SHA-256 %s, want %s", tc.name, got, tc.sha)
		}
		if got := e.Stats(); got != tc.stats {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, tc.stats)
		}
	}
}

// TestTransAllocsPerClause bounds the heap allocations of encoding plus
// transitivity generation on ooo.inv-2 (254,397 clauses) at 0.05 per
// clause. What remains is per variable, not per clause: the Boolean DAG,
// derived-variable nodes and the amortised growth of the flat arrays.
func TestTransAllocsPerClause(t *testing.T) {
	a := analyze(t, "ooo.inv-2")
	clauses := 0
	allocs := testing.AllocsPerRun(2, func() {
		ts, err := a.encode(t).TransSet()
		if err != nil {
			t.Fatal(err)
		}
		clauses = ts.Len()
	})
	perClause := allocs / float64(clauses)
	if perClause > 0.05 {
		t.Errorf("%.0f allocations for %d clauses: %.3f per clause, want <= 0.05", allocs, clauses, perClause)
	}
	t.Logf("%.0f allocations for %d clauses (%.4f per clause)", allocs, clauses, perClause)
}

// BenchmarkTransSet times transitivity generation alone on ooo.inv-3, the
// trans layer of the paper-invariant workload, over one encoding.
func BenchmarkTransSet(b *testing.B) {
	e := analyze(b, "ooo.inv-3").encode(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ts *perconstraint.TransSet
	for i := 0; i < b.N; i++ {
		var err error
		if ts, err = e.TransSet(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ts.Len()), "clauses/op")
}
