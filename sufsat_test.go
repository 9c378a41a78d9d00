package sufsat

import (
	"strings"
	"testing"
	"time"
)

func TestBuilderAPI(t *testing.T) {
	b := NewBuilder()
	x, y := b.Int("x"), b.Int("y")
	f := b.Implies(b.Eq(x, y), b.Eq(b.Fn("f", x), b.Fn("f", y)))
	res := Decide(f, Options{})
	if res.Status != Valid {
		t.Fatalf("functional congruence: got %v, want valid", res.Status)
	}
	if res.Stats.Nodes == 0 || res.Stats.TotalTime <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestAllMethodsAgree(t *testing.T) {
	cases := []struct {
		src   string
		valid bool
	}{
		{"(=> (< x y) (<= (succ x) y))", true},
		{"(=> (= (f x) (f y)) (= x y))", false},
		{"(not (and (>= x y) (>= y z) (>= z (succ x))))", true},
		{"(iff (p x) (p x))", true},
	}
	methods := []Method{MethodHybrid, MethodSD, MethodEIJ, MethodLazy, MethodSVC}
	for _, c := range cases {
		for _, m := range methods {
			b := NewBuilder()
			f := b.MustParse(c.src)
			res := Decide(f, Options{Method: m, Timeout: 30 * time.Second})
			want := Invalid
			if c.valid {
				want = Valid
			}
			if res.Status != want {
				t.Errorf("%v on %q: got %v, want %v", m, c.src, res.Status, want)
			}
		}
	}
}

func TestTermHelpers(t *testing.T) {
	b := NewBuilder()
	x := b.Int("x")
	if got := x.Plus(2).Pred().Pred(); got != x {
		t.Errorf("x+2-1-1 = %v, want x", got)
	}
	if x.Succ().String() != "(succ x)" {
		t.Errorf("Succ render: %q", x.Succ().String())
	}
	f := b.Lt(x, x.Succ())
	if ok, err := IsValid(f); err != nil || !ok {
		t.Errorf("x < x+1 must be valid: %v %v", ok, err)
	}
}

func TestIteAndRelations(t *testing.T) {
	b := NewBuilder()
	x, y := b.Int("x"), b.Int("y")
	mn := b.Ite(b.Lt(x, y), x, y)
	f := b.And(b.Le(mn, x), b.Le(mn, y))
	if ok, _ := IsValid(f); !ok {
		t.Error("min(x,y) ≤ x ∧ min(x,y) ≤ y must be valid")
	}
	g := b.Or(b.Ge(x, y), b.Gt(y, x))
	if ok, _ := IsValid(g); !ok {
		t.Error("x ≥ y ∨ y > x must be valid")
	}
}

func TestParseErrorSurface(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Parse("(= x"); err == nil {
		t.Error("expected parse error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	b.MustParse("(=")
}

func TestCrossBuilderPanics(t *testing.T) {
	b1, b2 := NewBuilder(), NewBuilder()
	x1 := b1.Int("x")
	y2 := b2.Int("y")
	defer func() {
		if recover() == nil {
			t.Error("mixing builders should panic")
		}
	}()
	b1.Eq(x1, y2)
}

func TestFormulaStringRoundTrip(t *testing.T) {
	b := NewBuilder()
	f := b.MustParse("(and (= (g x y) z) (< x (+ y 2)))")
	g, err := b.Parse(f.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if f != g {
		t.Errorf("round trip changed formula: %q vs %q", f, g)
	}
	if !strings.Contains(f.String(), "succ") {
		t.Errorf("offset should render as succ chain: %q", f)
	}
}

func TestTimeoutSurfaces(t *testing.T) {
	b := NewBuilder()
	parts := []Formula{}
	for i := 0; i < 12; i++ {
		ai := b.Int(string(rune('a' + i)))
		bi := b.Int(string(rune('n' + i)))
		parts = append(parts, b.Or(b.Lt(ai, bi), b.Lt(bi, ai)))
	}
	f := b.And(parts...).Not()
	res := Decide(f, Options{Method: MethodSVC, Timeout: time.Nanosecond})
	if res.Status != Timeout {
		t.Errorf("got %v, want timeout", res.Status)
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodHybrid: "HYBRID", MethodSD: "SD", MethodEIJ: "EIJ",
		MethodLazy: "LAZY", MethodSVC: "SVC",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

// TestParseMethodRoundTrips: every method parses back from its lower-cased
// String, and any other name is an error.
func TestParseMethodRoundTrips(t *testing.T) {
	for m := MethodHybrid; m <= MethodPortfolio; m++ {
		if got, err := ParseMethod(strings.ToLower(m.String())); err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", strings.ToLower(m.String()), got, err, m)
		}
	}
	for _, name := range []string{"", "HYBRID", "cvc", "method(6)"} {
		if m, err := ParseMethod(name); err == nil {
			t.Errorf("ParseMethod(%q) = %v, want an error", name, m)
		}
	}
}

func TestHybridStatsExposeClassSplit(t *testing.T) {
	b := NewBuilder()
	// Two classes: one big (forced to SD with threshold 1), one trivial.
	f := b.True()
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			vi, vj := b.Int(string(rune('a'+i))), b.Int(string(rune('a'+j)))
			f = f.And(b.Implies(b.Lt(vi, vj), b.Not(b.Lt(vj, vi))))
		}
	}
	f = f.And(b.Implies(b.Lt(b.Int("z1"), b.Int("z2")), b.Lt(b.Int("z1"), b.Int("z2").Succ())))
	res := Decide(f, Options{SepThreshold: 1})
	if res.Status != Valid {
		t.Fatalf("got %v", res.Status)
	}
	if res.Stats.Classes < 2 || res.Stats.SDClasses == 0 {
		t.Errorf("expected class split in stats: %+v", res.Stats)
	}
}

func TestCounterexample(t *testing.T) {
	b := NewBuilder()
	x, y := b.Int("x"), b.Int("y")
	f := b.Implies(b.Eq(b.Fn("f", x), b.Fn("f", y)), b.Eq(x, y))
	res := Decide(f, Options{})
	if res.Status != Invalid || res.Counterexample == nil {
		t.Fatalf("got %v (cx=%v)", res.Status, res.Counterexample)
	}
	cx := res.Counterexample
	if cx.Holds(f) {
		t.Fatal("counterexample must falsify the formula")
	}
	if cx.Const("x") == cx.Const("y") {
		t.Fatal("counterexample must distinguish x and y")
	}
	// Valid formulas carry no counterexample.
	g := b.Implies(b.Eq(x, y), b.Eq(b.Fn("f", x), b.Fn("f", y)))
	if r := Decide(g, Options{}); r.Counterexample != nil {
		t.Fatal("valid result must not carry a counterexample")
	}
}

func TestCounterexampleBoolAndHolds(t *testing.T) {
	b := NewBuilder()
	f := b.Bool("p").And(b.Lt(b.Int("u"), b.Int("v")))
	res := Decide(f, Options{Method: MethodSD})
	if res.Status != Invalid {
		t.Fatalf("got %v", res.Status)
	}
	cx := res.Counterexample
	if cx.Holds(f) {
		t.Fatal("counterexample must falsify")
	}
	// The sub-formulas evaluate consistently under the counterexample.
	if cx.BoolConst("p") && cx.Const("u") < cx.Const("v") {
		t.Fatal("counterexample claims both conjuncts hold")
	}
}

func TestPortfolioMethod(t *testing.T) {
	b := NewBuilder()
	f := b.MustParse("(not (and (>= x y) (>= y z) (>= z (succ x))))")
	res := Decide(f, Options{Method: MethodPortfolio, Timeout: 30 * time.Second})
	if res.Status != Valid {
		t.Fatalf("got %v, want valid", res.Status)
	}
	g := b.MustParse("(=> (= (f x) (f y)) (= x y))")
	if r := Decide(g, Options{Method: MethodPortfolio, Timeout: 30 * time.Second}); r.Status != Invalid {
		t.Fatalf("got %v, want invalid", r.Status)
	}
	if MethodPortfolio.String() != "PORTFOLIO" {
		t.Error("method string")
	}
}

func TestParseSMTLIBAndCheckSat(t *testing.T) {
	b := NewBuilder()
	f, err := b.ParseSMTLIB(`
		(set-logic QF_UFIDL)
		(declare-fun f (Int) Int)
		(declare-const x Int) (declare-const y Int)
		(assert (= x y))
		(assert (distinct (f x) (f y)))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	sat, model, err := CheckSat(f, Options{})
	if err != nil || sat {
		t.Fatalf("congruence violation must be unsat: sat=%v err=%v", sat, err)
	}
	if model != nil {
		t.Fatal("unsat must not carry a model")
	}

	g, err := b.ParseSMTLIB(`
		(declare-const a Int) (declare-const b Int)
		(assert (<= (- a b) 3))
		(assert (>= (- a b) 2))
		(check-sat)`)
	if err != nil {
		t.Fatal(err)
	}
	sat, model, err = CheckSat(g, Options{})
	if err != nil || !sat {
		t.Fatalf("want sat: %v %v", sat, err)
	}
	if d := model.Const("a") - model.Const("b"); d < 2 || d > 3 {
		t.Fatalf("model a-b = %d, want within [2,3]", d)
	}
	if !model.Holds(g) {
		t.Fatal("CheckSat model must satisfy the formula")
	}
}

func TestParseSMTLIBErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.ParseSMTLIB(`(assert (< undeclared 3))`); err == nil {
		t.Fatal("expected error")
	}
}
