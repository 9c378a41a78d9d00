package perconstraint

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sufsat/internal/boolexpr"
	"sufsat/internal/difflogic"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// TestQuickTransitivityCharacterizesFeasibility is the defining property of
// the eager transitivity generation: a truth assignment to the source
// predicate variables extends to a satisfying assignment of F_trans iff the
// corresponding difference-constraint set is feasible (no negative cycle).
// difflogic is the independent oracle.
func TestQuickTransitivityCharacterizesFeasibility(t *testing.T) {
	f := func(seed int64, assignBits uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b := suf.NewBuilder()
		g := randomClasses(rng, b, 1+rng.Intn(3), 5, 7, 6)
		info, err := sep.Analyze(g, b, nil)
		if err != nil {
			return false
		}
		bb := boolexpr.NewBuilder()
		e := NewEncoder(info, b, bb)
		if _, err := e.Walker().Encode(info.Formula); err != nil {
			return false
		}
		clauses, err := e.TransClauseList()
		if err != nil {
			return false
		}
		source := e.Predicates()
		if len(source) == 0 {
			return true
		}

		// Random assignment of the source predicate variables.
		val := make(map[*boolexpr.Node]bool)
		var cs []difflogic.Constraint
		for i, p := range source {
			v := assignBits>>(uint(i)%16)&1 == 1
			val[p.Var] = v
			if v {
				cs = append(cs, difflogic.Constraint{X: p.X, Y: p.Y, C: int64(p.C)})
			} else {
				cs = append(cs, difflogic.Constraint{X: p.Y, Y: p.X, C: int64(-p.C - 1)})
			}
		}
		feasible, _ := difflogic.Check(cs)

		// Does the assignment extend to satisfy F_trans? Pin the source
		// variables and SAT-solve the clause set.
		s := sat.New()
		lits := make(map[*boolexpr.Node]sat.Lit)
		litOf := func(n *boolexpr.Node) sat.Lit {
			if l, ok := lits[n]; ok {
				return l
			}
			l := sat.PosLit(s.NewVar())
			lits[n] = l
			return l
		}
		for _, cl := range clauses {
			var sl []sat.Lit
			for _, tl := range cl {
				l := litOf(tl.Var)
				if tl.Neg {
					l = l.Not()
				}
				sl = append(sl, l)
			}
			s.AddClause(sl...)
		}
		for n, v := range val {
			l := litOf(n)
			if !v {
				l = l.Not()
			}
			s.AddClause(l)
		}
		extends := s.Solve() == sat.Sat
		return extends == feasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// randomClasses builds a formula that merely introduces random difference
// predicates over nClasses disjoint classes: each class has 3..maxVars
// constants chained into one class by guarded equalities, and up to
// maxPreds predicates x − y ≤ c with c in [−maxOff, maxOff], each behind a
// Boolean guard so the formula does not constrain it.
func randomClasses(rng *rand.Rand, b *suf.Builder, nClasses, maxVars, maxPreds, maxOff int) *suf.BoolExpr {
	g := b.True()
	for k := 0; k < nClasses; k++ {
		nVars := 3 + rng.Intn(maxVars-2)
		sym := func(i int) *suf.IntExpr { return b.Sym(fmt.Sprintf("c%dv%d", k, i)) }
		for i, n := 0, 1+rng.Intn(maxPreds); i < n; i++ {
			x, y := rng.Intn(nVars), rng.Intn(nVars)
			if x == y {
				continue
			}
			c := rng.Intn(2*maxOff+1) - maxOff
			// x − y ≤ c ⟺ x ≤ y + c
			g = b.And(g, b.Or(b.BoolSym(fmt.Sprintf("s%d_%d", k, i)), b.Le(sym(x), b.Offset(sym(y), c))))
		}
		for i := 0; i < nVars-1; i++ {
			g = b.And(g, b.Or(b.BoolSym(fmt.Sprintf("sc%d", k)), b.Eq(sym(i), sym(i+1))))
		}
	}
	return g
}
