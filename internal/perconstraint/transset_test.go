package perconstraint

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sufsat/internal/boolexpr"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// TestTransSetMatchesReference checks that the flat generator is the
// string-keyed one it replaced, computed differently: on random multi-class
// formulas, under every elimination order, budget and cancellation, both
// emit the same clauses in the same order (compared by variable name and
// polarity), end with the same error and leave the same Stats.
func TestTransSetMatchesReference(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 300; iter++ {
		b := suf.NewBuilder()
		f := randomClasses(rng, b, 1+rng.Intn(4), 8, 20, 8)
		info, err := sep.Analyze(f, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		order := OrderHeuristic(iter % 3)
		maxTrans := 0
		var ctx context.Context
		switch rng.Intn(4) {
		case 0:
			maxTrans = 1 + rng.Intn(300)
		case 1:
			ctx = canceled
		}
		encoder := func() *Encoder {
			e := NewEncoder(info, b, boolexpr.NewBuilder())
			e.Order, e.MaxTrans = order, maxTrans
			if _, err := e.Walker().Encode(info.Formula); err != nil {
				t.Fatal(err)
			}
			e.Ctx = ctx
			return e
		}
		ref, flat := encoder(), encoder()
		want, wantErr := ref.refTransClauseList()
		got, gotErr := flat.TransSet()

		if !sameErr(gotErr, wantErr) {
			t.Fatalf("iter %d (%v): error %v, reference %v", iter, order, gotErr, wantErr)
		}
		if gs, ws := flat.Stats(), ref.Stats(); gs != ws {
			t.Fatalf("iter %d (%v): stats %+v, reference %+v", iter, order, gs, ws)
		}
		if wantErr != nil {
			continue
		}
		if got.Len() != len(want) {
			t.Fatalf("iter %d (%v): %d clauses, reference %d", iter, order, got.Len(), len(want))
		}
		for i, wcl := range want {
			gcl := got.Clause(i)
			same := len(gcl) == len(wcl)
			for j := 0; same && j < len(wcl); j++ {
				l := got.Lit(gcl[j])
				same = l.Var.Name() == wcl[j].Var.Name() && l.Neg == wcl[j].Neg
			}
			if !same {
				t.Fatalf("iter %d (%v): clause %d is %v, reference %v", iter, order, i, render(got, gcl), wcl)
			}
		}
		// The adapter is the same stream.
		list, err := encoder().TransClauseList()
		if err != nil || len(list) != len(want) {
			t.Fatalf("iter %d: TransClauseList gave %d clauses (%v), want %d", iter, len(list), err, len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(names(list[i]), names(want[i])) {
				t.Fatalf("iter %d: TransClauseList clause %d is %v, reference %v", iter, i, list[i], want[i])
			}
		}
	}
}

// sameErr reports whether two generator errors are the same outcome: both
// nil, the same budget exhaustion (class and limit), or the same sentinel.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	var ba, bb *BudgetError
	if errors.As(a, &ba) != errors.As(b, &bb) {
		return false
	}
	if ba != nil {
		return ba.Class == bb.Class && ba.Limit == bb.Limit
	}
	return errors.Is(a, b)
}

func names(cl TransClause) []string {
	out := make([]string, len(cl))
	for i, l := range cl {
		out[i] = l.Var.Name()
		if l.Neg {
			out[i] = "-" + out[i]
		}
	}
	return out
}

func render(ts *TransSet, codes []int32) []string {
	cl := make(TransClause, len(codes))
	for i, c := range codes {
		cl[i] = ts.Lit(c)
	}
	return names(cl)
}
