package perconstraint

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sufsat/internal/boolexpr"
	"sufsat/internal/difflogic"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// encodeEIJ encodes the analyzed formula through an Encoder capped at
// maxTrans transitivity constraints (0 = none) and returns F_bvar, F_trans
// as one Boolean formula, and the encoder.
func encodeEIJ(info *sep.Info, b *suf.Builder, bb *boolexpr.Builder, maxTrans int) (bvar, trans *boolexpr.Node, e *Encoder, err error) {
	e = NewEncoder(info, b, bb)
	e.MaxTrans = maxTrans
	if bvar, err = e.Walker().Encode(info.Formula); err != nil {
		return nil, nil, nil, err
	}
	trans, err = transFormula(e, bb)
	return bvar, trans, e, err
}

// transFormula is F_trans as one Boolean formula: the conjunction of the
// clauses of e.TransSet.
func transFormula(e *Encoder, bb *boolexpr.Builder) (*boolexpr.Node, error) {
	ts, err := e.TransSet()
	if err != nil {
		return nil, err
	}
	out := bb.True()
	for i := 0; i < ts.Len(); i++ {
		d := bb.False()
		for _, code := range ts.Clause(i) {
			l := ts.Lit(code)
			if l.Neg {
				d = bb.Or(d, bb.Not(l.Var))
			} else {
				d = bb.Or(d, l.Var)
			}
		}
		out = bb.And(out, d)
	}
	return out, nil
}

// eijSatisfiable encodes f with EIJ and reports whether Trans ∧ Bvar is SAT —
// i.e. whether f is satisfiable.
func eijSatisfiable(t *testing.T, f *suf.BoolExpr, b *suf.Builder) bool {
	t.Helper()
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	bvar, trans, _, err := encodeEIJ(info, b, bb, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	boolexpr.AssertTrue(bb.And(trans, bvar), s)
	switch s.Solve() {
	case sat.Sat:
		return true
	case sat.Unsat:
		return false
	}
	t.Fatal("solver returned Unknown")
	return false
}

// bruteSatisfiable enumerates constant values over the small-model domain
// and Boolean constants over {false,true}.
func bruteSatisfiable(f *suf.BoolExpr, maxAbsOff int) bool {
	var consts, bools []string
	for v := range suf.FuncApps(f, 0) {
		consts = append(consts, v)
	}
	for v := range suf.PredApps(f, 0) {
		bools = append(bools, v)
	}
	d := int64(len(consts)*(2*maxAbsOff+1) + 1)
	nC, nB := len(consts), len(bools)
	total := int64(1)
	for i := 0; i < nC; i++ {
		total *= d
	}
	total <<= uint(nB)
	for idx := int64(0); idx < total; idx++ {
		rem := idx
		fns := make(map[string]int64, nC)
		for _, v := range consts {
			fns[v] = rem % d
			rem /= d
		}
		preds := make(map[string]bool, nB)
		for _, v := range bools {
			preds[v] = rem&1 == 1
			rem >>= 1
		}
		if suf.EvalBool(f, suf.MapInterp(fns, preds)) {
			return true
		}
	}
	return false
}

func TestPaperExample(t *testing.T) {
	// x ≥ y ∧ y ≥ z ∧ z ≥ succ(x) is unsatisfiable (§2.1.2).
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	f := b.AndN(b.Ge(x, y), b.Ge(y, z), b.Ge(z, b.Succ(x)))
	if eijSatisfiable(t, f, b) {
		t.Fatal("paper example must be unsatisfiable")
	}
	// Dropping the succ makes it satisfiable (x = y = z).
	g := b.AndN(b.Ge(x, y), b.Ge(y, z), b.Ge(z, x))
	if !eijSatisfiable(t, g, b) {
		t.Fatal("relaxed example must be satisfiable")
	}
}

func TestEqualityChain(t *testing.T) {
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	// x=y ∧ y=z ∧ x<z unsat.
	f := b.AndN(b.Eq(x, y), b.Eq(y, z), b.Lt(x, z))
	if eijSatisfiable(t, f, b) {
		t.Fatal("equality chain with strict inequality must be unsatisfiable")
	}
}

func TestOffsetsChains(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	// x+2 = y ∧ y = x+3 unsat; x+2 = y ∧ y = x+2 sat.
	f := b.And(b.Eq(b.Offset(x, 2), y), b.Eq(y, b.Offset(x, 3)))
	if eijSatisfiable(t, f, b) {
		t.Fatal("inconsistent offsets must be unsatisfiable")
	}
	g := b.And(b.Eq(b.Offset(x, 2), y), b.Eq(y, b.Offset(x, 2)))
	if !eijSatisfiable(t, g, b) {
		t.Fatal("consistent offsets must be satisfiable")
	}
}

func TestIteElimination(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	c := b.BoolSym("c")
	// ITE(c,x,y) = x is satisfiable; ITE(c,x,y) < ITE(c,x,y)+0 is unsat.
	f := b.Eq(b.Ite(c, x, y), x)
	if !eijSatisfiable(t, f, b) {
		t.Fatal("want satisfiable")
	}
	tm := b.Ite(c, x, y)
	g := b.Lt(tm, tm)
	if eijSatisfiable(t, g, b) {
		t.Fatal("t < t must be unsatisfiable")
	}
}

func TestVpPredicatesCollapse(t *testing.T) {
	b := suf.NewBuilder()
	x, p := b.Sym("x"), b.Sym("vp")
	f := b.Eq(p, x)
	info, err := sep.Analyze(f, b, map[string]bool{"vp": true})
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	bvar, _, e, err := encodeEIJ(info, b, bb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bvar != bb.False() {
		t.Fatalf("vp = x must encode to false under maximal diversity, got %v", bvar)
	}
	if e.Stats().PredVars != 0 {
		t.Fatalf("no predicate variables expected, got %d", e.Stats().PredVars)
	}
}

func TestVpUnderLtIsError(t *testing.T) {
	b := suf.NewBuilder()
	f := b.Lt(b.Sym("vp"), b.Sym("x"))
	info, err := sep.Analyze(f, b, map[string]bool{"vp": true})
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	if _, _, _, err := encodeEIJ(info, b, bb, 0); err == nil {
		t.Fatal("expected error for V_p constant under <")
	}
}

func TestTranslationLimit(t *testing.T) {
	// A dense clique of inequalities forces many transitivity constraints.
	b := suf.NewBuilder()
	n := 8
	vars := make([]*suf.IntExpr, n)
	for i := range vars {
		vars[i] = b.Sym(fmt.Sprintf("v%d", i))
	}
	f := b.True()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			f = b.And(f, b.Or(b.Lt(vars[i], vars[j]), b.Lt(vars[j], vars[i])))
		}
	}
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	_, _, _, err = encodeEIJ(info, b, bb, 3)
	if !errors.Is(err, ErrTranslationLimit) {
		t.Fatalf("got %v, want ErrTranslationLimit", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != 3 || be.Class == nil {
		t.Fatalf("got %v, want *BudgetError naming the class and limit 3", err)
	}
}

func TestLitCanonicalization(t *testing.T) {
	b := suf.NewBuilder()
	f := b.Lt(b.Sym("a"), b.Sym("z"))
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	e := NewEncoder(info, b, bb)
	l1 := e.Lit("a", "z", 3)
	l2 := e.Lit("z", "a", -4) // ¬(a−z ≤ 3)
	if bb.Not(l1) != l2 {
		t.Fatalf("flip canonicalization broken: %v vs %v", l1, l2)
	}
	if e.Stats().PredVars != 1 {
		t.Fatalf("PredVars = %d, want 1 (shared variable)", e.Stats().PredVars)
	}
}

func randomSepFormula(rng *rand.Rand, b *suf.Builder, nVars, depth int) *suf.BoolExpr {
	var boolE func(d int) *suf.BoolExpr
	var intE func(d int) *suf.IntExpr
	sym := func() *suf.IntExpr { return b.Sym(fmt.Sprintf("v%d", rng.Intn(nVars))) }
	intE = func(d int) *suf.IntExpr {
		if d == 0 || rng.Intn(2) == 0 {
			return b.Offset(sym(), rng.Intn(5)-2)
		}
		return b.Ite(boolE(d-1), intE(d-1), intE(d-1))
	}
	boolE = func(d int) *suf.BoolExpr {
		if d == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return b.Eq(intE(d), intE(d))
			case 1:
				return b.Lt(intE(d), intE(d))
			default:
				return b.BoolSym(fmt.Sprintf("c%d", rng.Intn(2)))
			}
		}
		switch rng.Intn(3) {
		case 0:
			return b.Not(boolE(d - 1))
		case 1:
			return b.And(boolE(d-1), boolE(d-1))
		default:
			return b.Or(boolE(d-1), boolE(d-1))
		}
	}
	return boolE(depth)
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 120; iter++ {
		b := suf.NewBuilder()
		f := randomSepFormula(rng, b, 3, 3)
		want := bruteSatisfiable(f, 2)
		got := eijSatisfiable(t, f, b)
		if got != want {
			t.Fatalf("iter %d: EIJ=%v brute=%v\nf = %v", iter, got, want, f)
		}
	}
}

func TestConjunctionsAgainstDiffLogic(t *testing.T) {
	// Pure conjunctions of separation literals: difflogic is the oracle.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		b := suf.NewBuilder()
		nVars := 2 + rng.Intn(4)
		var cs []difflogic.Constraint
		f := b.True()
		for k := 0; k < 1+rng.Intn(8); k++ {
			x := fmt.Sprintf("v%d", rng.Intn(nVars))
			y := fmt.Sprintf("v%d", rng.Intn(nVars))
			if x == y {
				continue
			}
			c := rng.Intn(5) - 2
			// x − y ≤ c  ⟺  x ≤ y + c  ⟺  ¬(y + c < x)
			f = b.And(f, b.Le(b.Sym(x), b.Offset(b.Sym(y), c)))
			cs = append(cs, difflogic.Constraint{X: x, Y: y, C: int64(c)})
		}
		want, _ := difflogic.Check(cs)
		got := eijSatisfiable(t, f, b)
		if got != want {
			t.Fatalf("iter %d: EIJ=%v difflogic=%v\ncs=%v", iter, got, want, cs)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	f := b.AndN(b.Ge(x, y), b.Ge(y, z), b.Ge(z, b.Succ(x)))
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	_, _, e, err := encodeEIJ(info, b, bb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().PredVars != 3 {
		t.Errorf("PredVars = %d, want 3", e.Stats().PredVars)
	}
	if e.Stats().TransConstraints == 0 {
		t.Errorf("expected transitivity constraints for a 3-cycle")
	}
}

func TestModelConstraints(t *testing.T) {
	b := suf.NewBuilder()
	f := b.And(b.Lt(b.Sym("a"), b.Sym("c")), b.Le(b.Sym("c"), b.Offset(b.Sym("a"), 5)))
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	e := NewEncoder(info, b, bb)
	if _, err := e.Walker().Encode(info.Formula); err != nil {
		t.Fatal(err)
	}
	preds := e.Predicates()
	if len(preds) != 2 {
		t.Fatalf("predicates = %d, want 2", len(preds))
	}
	// All true: both constraints asserted as stated.
	cs := e.ModelConstraints(func(n *boolexpr.Node) (bool, bool) { return true, true })
	if len(cs) != 2 {
		t.Fatalf("constraints = %d, want 2", len(cs))
	}
	if ok, _ := difflogic.Check(cs); !ok {
		t.Fatal("a < c ∧ c ≤ a+5 must be feasible")
	}
	// Both canonical variables are oriented a−c (Le(c,a+5) abstracts through
	// the Lt(a+5,c) atom): a−c ≤ −1 and a−c ≤ −6. Asserting the tight one
	// true and the loose one false is contradictory (a−c ≤ −6 ∧ a−c ≥ 0).
	byC := make(map[int]*boolexpr.Node)
	for _, p := range preds {
		byC[p.C] = p.Var
	}
	if byC[-1] == nil || byC[-6] == nil {
		t.Fatalf("unexpected canonical weights: %+v", preds)
	}
	csMix := e.ModelConstraints(func(n *boolexpr.Node) (bool, bool) {
		return n == byC[-6], true // a−c≤−6 true, a−c≤−1 false (a ≥ c)
	})
	if ok, _ := difflogic.Check(csMix); ok {
		t.Fatal("a−c ≤ −6 with ¬(a−c ≤ −1) must be infeasible")
	}
	// Unknown variables are skipped.
	none := e.ModelConstraints(func(n *boolexpr.Node) (bool, bool) { return false, false })
	if len(none) != 0 {
		t.Fatalf("expected no constraints, got %v", none)
	}
}

// TestOrderHeuristicsAgree: all elimination orders must produce complete
// constraint sets — cross-checked by satisfiability agreement on formulas
// with nontrivial transitive structure.
func TestOrderHeuristicsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 60; iter++ {
		b := suf.NewBuilder()
		f := randomSepFormula(rng, b, 4, 4)
		info, err := sep.Analyze(f, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []sat.Status
		for _, ord := range []OrderHeuristic{MinDegree, MinFill, Lexicographic} {
			bb := boolexpr.NewBuilder()
			e := NewEncoder(info, b, bb)
			e.Order = ord
			fb, err := e.Walker().Encode(info.Formula)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := transFormula(e, bb)
			if err != nil {
				t.Fatal(err)
			}
			s := sat.New()
			boolexpr.AssertTrue(bb.And(tr, fb), s)
			verdicts = append(verdicts, s.Solve())
		}
		if verdicts[0] != verdicts[1] || verdicts[1] != verdicts[2] {
			t.Fatalf("iter %d: heuristics disagree: %v\nf = %v", iter, verdicts, f)
		}
	}
}

func TestOrderHeuristicStrings(t *testing.T) {
	if MinDegree.String() != "min-degree" || MinFill.String() != "min-fill" ||
		Lexicographic.String() != "lexicographic" {
		t.Fatal("OrderHeuristic strings wrong")
	}
}
