package svc

import (
	"context"
	"fmt"
	"math/rand"
	"sufsat/internal/difflogic"
	"sufsat/internal/sep"
	"testing"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/suf"
)

var catalog = []struct {
	name  string
	src   string
	valid bool
}{
	{"func-congruence", "(=> (= x y) (= (f x) (f y)))", true},
	{"no-injectivity", "(=> (= (f x) (f y)) (= x y))", false},
	{"integers-not-dense", "(=> (< x y) (<= (succ x) y))", true},
	{"transitivity", "(=> (and (< x y) (< y z)) (< x z))", true},
	{"offset-transitivity", "(=> (and (<= x (+ y 2)) (<= y (- z 3))) (<= x (- z 1)))", true},
	{"offset-too-tight", "(=> (and (<= x (+ y 2)) (<= y (- z 3))) (<= x (- z 2)))", false},
	{"queue-cycle", "(not (and (>= x y) (>= y z) (>= z (succ x))))", true},
	{"pred-congruence", "(=> (and (p x) (= x y)) (p y))", true},
	{"plain-contradiction", "(and (< x y) (< y x))", false},
	{"antisymmetry", "(=> (and (<= x y) (<= y x)) (= x y))", true},
	{"ite-atoms", "(= (ite c x y) (ite (not c) y x))", true},
}

func TestCatalog(t *testing.T) {
	for _, fc := range catalog {
		t.Run(fc.name, func(t *testing.T) {
			b := suf.NewBuilder()
			f := suf.MustParse(fc.src, b)
			res := Decide(context.Background(), f, b, Options{})
			if res.Err != nil {
				t.Fatalf("error: %v", res.Err)
			}
			want := core.Invalid
			if fc.valid {
				want = core.Valid
			}
			if res.Status != want {
				t.Fatalf("got %v, want %v", res.Status, want)
			}
		})
	}
}

func randomSUF(rng *rand.Rand, b *suf.Builder, depth int) *suf.BoolExpr {
	var boolE func(d int) *suf.BoolExpr
	var intE func(d int) *suf.IntExpr
	syms := []string{"x", "y", "z"}
	intE = func(d int) *suf.IntExpr {
		if d == 0 || rng.Intn(3) == 0 {
			return b.Offset(b.Sym(syms[rng.Intn(len(syms))]), rng.Intn(3)-1)
		}
		switch rng.Intn(3) {
		case 0:
			return b.Fn("f", intE(d-1))
		default:
			return b.Ite(boolE(d-1), intE(d-1), intE(d-1))
		}
	}
	boolE = func(d int) *suf.BoolExpr {
		if d == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return b.Eq(intE(d), intE(d))
			case 1:
				return b.Lt(intE(d), intE(d))
			default:
				return b.BoolSym("c")
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

func TestAgreesWithHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 100; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		rs := Decide(context.Background(), f, b, Options{})
		rh := core.Decide(f, b, core.Options{Method: core.Hybrid})
		if rs.Err != nil || rh.Err != nil {
			t.Fatalf("iter %d: errors %v / %v", iter, rs.Err, rh.Err)
		}
		if rs.Status != rh.Status {
			t.Fatalf("iter %d: svc=%v hybrid=%v\nf = %v", iter, rs.Status, rh.Status, f)
		}
	}
}

// conjunction builds ¬(x0<x1 ∧ … ∧ x_{n-1}<x_n ∧ x_n<x_0): a valid formula
// whose refutation is a pure conjunction — SVC's sweet spot.
func conjunction(b *suf.Builder, n int) *suf.BoolExpr {
	f := b.True()
	for i := 0; i < n; i++ {
		f = b.And(f, b.Lt(b.Sym(fmt.Sprintf("x%d", i)), b.Sym(fmt.Sprintf("x%d", i+1))))
	}
	f = b.And(f, b.Lt(b.Sym(fmt.Sprintf("x%d", n)), b.Sym("x0")))
	return b.Not(f)
}

func TestConjunctionsAreLinear(t *testing.T) {
	// On conjunctions the split count must stay linear in the number of
	// atoms (each atom is decided once, the second branch dies immediately).
	for _, n := range []int{5, 10, 20} {
		b := suf.NewBuilder()
		res := Decide(context.Background(), conjunction(b, n), b, Options{})
		if res.Status != core.Valid {
			t.Fatalf("n=%d: got %v", n, res.Status)
		}
		if res.Stats.Splits > int64(3*(n+1)) {
			t.Fatalf("n=%d: %d splits, expected linear (≤ %d)", n, res.Stats.Splits, 3*(n+1))
		}
	}
}

// disjunctive builds a formula whose refutation branches exponentially:
// ⋀_i (a_i < b_i ∨ b_i < a_i) with a final constraint that keeps every
// branch alive until the end.
func disjunctive(b *suf.Builder, n int) *suf.BoolExpr {
	f := b.True()
	for i := 0; i < n; i++ {
		ai, bi := b.Sym(fmt.Sprintf("a%d", i)), b.Sym(fmt.Sprintf("b%d", i))
		f = b.And(f, b.Or(b.Lt(ai, bi), b.Lt(bi, ai)))
	}
	return b.Not(f) // invalid: every branch is satisfiable
}

func TestDisjunctionsBlowUp(t *testing.T) {
	// Valid disjunction-rich refutations force the full search tree; the
	// split count must grow super-linearly (here: the formula is invalid,
	// so SVC finds a model quickly — use the valid variant instead).
	// ¬(⋁_i (a_i<b_i ∧ b_i<a_i)) is valid and every disjunct must be refuted.
	grow := make([]int64, 0, 3)
	for _, n := range []int{4, 6, 8} {
		b := suf.NewBuilder()
		f := b.False()
		for i := 0; i < n; i++ {
			ai, bi := b.Sym(fmt.Sprintf("a%d", i)), b.Sym(fmt.Sprintf("b%d", i))
			f = b.Or(f, b.And(b.Lt(ai, bi), b.Lt(bi, ai)))
		}
		res := Decide(context.Background(), b.Not(f), b, Options{})
		if res.Status != core.Valid {
			t.Fatalf("n=%d: got %v", n, res.Status)
		}
		grow = append(grow, res.Stats.Splits)
	}
	if !(grow[0] < grow[1] && grow[1] < grow[2]) {
		t.Fatalf("splits should grow with disjunction count: %v", grow)
	}
}

func TestDeadline(t *testing.T) {
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("v%d", i)), b.Sym(fmt.Sprintf("v%d", j))),
				b.Lt(b.Sym(fmt.Sprintf("v%d", j)), b.Sym(fmt.Sprintf("v%d", i)))))
		}
	}
	// Valid formula (negated satisfiable clique ordering constraints are
	// satisfiable, so this is invalid — either way the deadline must fire
	// before the exponential search ends).
	res := Decide(context.Background(), b.Not(f), b, Options{Timeout: time.Nanosecond})
	if res.Status != core.Timeout {
		t.Fatalf("got %v, want Timeout", res.Status)
	}
}

func TestStatsPopulated(t *testing.T) {
	b := suf.NewBuilder()
	res := Decide(context.Background(), conjunction(b, 6), b, Options{})
	if res.Stats.Splits == 0 || res.Stats.TheoryAsserts == 0 || res.Stats.Total <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestFlattenProducesGroundAtoms(t *testing.T) {
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	c := b.BoolSym("c")
	f := b.Lt(b.Ite(c, x, b.Offset(y, 2)), z)
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &prover{b: b, info: info, th: difflogic.NewSolver()}
	flat, err := p.flatten(info.Formula)
	if err != nil {
		t.Fatal(err)
	}
	// Every atom of the flattened formula must decompose into ground terms.
	seen := make(map[*suf.BoolExpr]bool)
	var walk func(*suf.BoolExpr)
	walk = func(e *suf.BoolExpr) {
		if e == nil || seen[e] {
			return
		}
		seen[e] = true
		switch e.Kind() {
		case suf.BEq, suf.BLt:
			t1, t2 := e.Terms()
			sep.DecomposeGround(t1) // panics on non-ground
			sep.DecomposeGround(t2)
		default:
			l, r := e.BoolChildren()
			walk(l)
			walk(r)
		}
	}
	walk(flat)
}

func TestGroundAtomFolding(t *testing.T) {
	b := suf.NewBuilder()
	info, err := sep.Analyze(b.Lt(b.Sym("x"), b.Sym("y")), b, map[string]bool{"vp": true})
	if err != nil {
		t.Fatal(err)
	}
	p := &prover{b: b, info: info, th: difflogic.NewSolver()}
	// Same variable folds to offset comparison.
	g, err := p.groundAtom(suf.BEq, sep.Ground{Var: "x", Off: 2}, sep.Ground{Var: "x", Off: 2})
	if err != nil || g != b.True() {
		t.Fatalf("x+2 = x+2 must fold to true: %v %v", g, err)
	}
	g, err = p.groundAtom(suf.BLt, sep.Ground{Var: "x", Off: 2}, sep.Ground{Var: "x", Off: 1})
	if err != nil || g != b.False() {
		t.Fatalf("x+2 < x+1 must fold to false: %v %v", g, err)
	}
	// V_p equality folds to false.
	g, err = p.groundAtom(suf.BEq, sep.Ground{Var: "vp"}, sep.Ground{Var: "x"})
	if err != nil || g != b.False() {
		t.Fatalf("vp = x must fold to false: %v %v", g, err)
	}
	// V_p under < is an upstream invariant violation.
	if _, err := p.groundAtom(suf.BLt, sep.Ground{Var: "vp"}, sep.Ground{Var: "x"}); err == nil {
		t.Fatal("vp under < must error")
	}
}

func TestSubstituteReplacesAtoms(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	atom := b.Lt(x, y)
	f := b.And(b.Or(atom, b.BoolSym("c")), b.Not(atom))
	got := substitute(b, f, atom, true)
	// (true ∨ c) ∧ ¬true = false
	if got != b.False() {
		t.Fatalf("substitute true: got %v", got)
	}
	got = substitute(b, f, atom, false)
	// (false ∨ c) ∧ ¬false = c
	if got != b.BoolSym("c") {
		t.Fatalf("substitute false: got %v", got)
	}
}
