package suf

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	if b.Sym("x") != x {
		t.Fatal("Sym not hash-consed")
	}
	if b.Fn("f", x) != b.Fn("f", x) {
		t.Fatal("Fn not hash-consed")
	}
	if b.Succ(x) != b.Succ(x) {
		t.Fatal("Succ not hash-consed")
	}
	if b.Eq(x, b.Sym("y")) != b.Eq(x, b.Sym("y")) {
		t.Fatal("Eq not hash-consed")
	}
}

func TestSuccPredCancel(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	if b.Succ(b.Pred(x)) != x {
		t.Fatal("succ(pred(x)) != x")
	}
	if b.Pred(b.Succ(x)) != x {
		t.Fatal("pred(succ(x)) != x")
	}
	if b.Offset(x, 3) != b.Succ(b.Succ(b.Succ(x))) {
		t.Fatal("Offset(+3) wrong")
	}
	if b.Offset(b.Offset(x, 3), -3) != x {
		t.Fatal("Offset roundtrip wrong")
	}
}

func TestBoolSimplifications(t *testing.T) {
	b := NewBuilder()
	p := b.BoolSym("p")
	if b.And(b.True(), p) != p || b.Or(b.False(), p) != p {
		t.Fatal("identity folding broken")
	}
	if b.And(b.False(), p) != b.False() || b.Or(b.True(), p) != b.True() {
		t.Fatal("dominance folding broken")
	}
	if b.Not(b.Not(p)) != p {
		t.Fatal("double negation broken")
	}
	x := b.Sym("x")
	if b.Eq(x, x) != b.True() {
		t.Fatal("x = x must fold to true")
	}
	if b.Lt(x, x) != b.False() {
		t.Fatal("x < x must fold to false")
	}
}

func TestIteFolding(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	c := b.BoolSym("c")
	if b.Ite(b.True(), x, y) != x || b.Ite(b.False(), x, y) != y {
		t.Fatal("constant-guard ITE folding broken")
	}
	if b.Ite(c, x, x) != x {
		t.Fatal("equal-branch ITE folding broken")
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.And(b.Lt(x, b.Succ(y)), b.Eq(b.Fn("g", x), b.Fn("g", x)))
	it := MapInterp(map[string]int64{"x": 3, "y": 3, "g[3]": 7}, nil)
	if !EvalBool(f, it) {
		t.Fatal("want true: 3 < 4 and g(3)=g(3)")
	}
	g := b.Lt(b.Pred(x), y)
	if !EvalBool(g, it) {
		t.Fatal("want true: 2 < 3")
	}
	h := b.Lt(y, x)
	if EvalBool(h, it) {
		t.Fatal("want false: 3 < 3")
	}
}

func TestEvalIte(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	tm := b.Ite(b.Lt(x, y), x, y) // min(x, y)
	it := MapInterp(map[string]int64{"x": 5, "y": 2}, nil)
	if got := EvalInt(tm, it); got != 2 {
		t.Fatalf("min(5,2) = %d, want 2", got)
	}
	it2 := MapInterp(map[string]int64{"x": 1, "y": 2}, nil)
	if got := EvalInt(tm, it2); got != 1 {
		t.Fatalf("min(1,2) = %d, want 1", got)
	}
}

func TestFunctionalConsistencyInRandomInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	it := RandomInterp(rng, 100)
	a := it.Fn("f", []int64{1, 2})
	if it.Fn("f", []int64{1, 2}) != a {
		t.Fatal("RandomInterp is not functionally consistent")
	}
	p := it.Pred("q", []int64{3})
	if it.Pred("q", []int64{3}) != p {
		t.Fatal("RandomInterp predicate not consistent")
	}
}

func TestCountNodes(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	// Shared subterm counted once: nodes are {x, y, f(x), f(x)=y(eq), y<f(x)(lt), and}.
	fx := b.Fn("f", x)
	f := b.And(b.Eq(fx, y), b.Lt(y, fx))
	if got := CountNodes(f); got != 6 {
		t.Fatalf("CountNodes = %d, want 6", got)
	}
}

func TestFuncAndPredApps(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.And(b.Eq(b.Fn("f", x), b.Fn("f", y)), b.PredApp("p", x, y))
	apps := FuncApps(f, 1)
	if len(apps["f"]) != 2 {
		t.Fatalf("f apps = %d, want 2", len(apps["f"]))
	}
	all := FuncApps(f, 0)
	if len(all["x"]) != 1 || len(all["y"]) != 1 {
		t.Fatalf("symbolic constants not collected: %v", all)
	}
	papps := PredApps(f, 0)
	if len(papps["p"]) != 1 {
		t.Fatalf("p apps = %d, want 1", len(papps["p"]))
	}
}

func TestClassifyPositiveEquality(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	// f appears only under a positive equality; g appears under a negated one.
	f := b.And(
		b.Eq(b.Fn("f", x), b.Fn("f", y)),
		b.Not(b.Eq(b.Fn("g", x), y)),
	)
	cl := Classify(f)
	if !cl.IsP("f") {
		t.Error("f should be a p-function")
	}
	if cl.IsP("g") {
		t.Error("g should be a g-function")
	}
	// x and y are arguments of the two-application symbol f → general.
	if cl.IsP("x") || cl.IsP("y") {
		t.Error("x, y are compared inside elimination ITE conditions → general")
	}
}

func TestClassifyInequalityMakesGeneral(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	f := b.Lt(b.Fn("h", x), b.Sym("z"))
	cl := Classify(f)
	if cl.IsP("h") || cl.IsP("z") {
		t.Error("terms under < must be general")
	}
}

func TestClassifySingleApplicationArgsVanish(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	// h applied once: its argument x never reaches the output formula.
	f := b.Eq(b.Fn("h", x), b.Fn("h2", x))
	cl := Classify(f)
	if !cl.IsP("h") || !cl.IsP("h2") {
		t.Error("single-application functions under positive equality are p")
	}
	if !cl.IsP("x") {
		t.Error("x only occurs as vanished argument → p by default")
	}
}

func TestClassifyPolarityThroughConnectives(t *testing.T) {
	b := NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	eq := b.Eq(b.Fn("f", x), y)
	// eq under implication antecedent → negative polarity.
	f := b.Implies(eq, b.BoolSym("q"))
	cl := Classify(f)
	if cl.IsP("f") {
		t.Error("f occurs under negative equality (antecedent)")
	}
	if cl.EqPol[eq]&PolNeg == 0 {
		t.Error("equation in antecedent must have negative polarity")
	}
}

func TestClassifyIteConditionIsBothPolarity(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	eq := b.Eq(x, y)
	f := b.Eq(b.Ite(eq, x, z), b.Sym("w"))
	cl := Classify(f)
	if cl.EqPol[eq] != PolPos|PolNeg {
		t.Errorf("ITE condition equation polarity = %b, want both", cl.EqPol[eq])
	}
	if cl.IsP("x") || cl.IsP("y") {
		t.Error("constants compared in an ITE condition are general")
	}
	_ = z
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"(and (= (f x) (f y)) (< x (+ y 3)))",
		"(=> (p x) (or (q) (= x y)))",
		"(iff b1 (not b2))",
		"(= (ite (< x y) x y) (g x y))",
		"(>= (succ x) (pred y))",
		"(<= x (- y 2))",
		"true",
		"(> a b)",
	}
	for _, src := range srcs {
		b := NewBuilder()
		f, err := Parse(src, b)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		// Reparse the printed form; must produce the identical node.
		g, err := Parse(f.String(), b)
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", src, f.String(), err)
		}
		if f != g {
			t.Fatalf("round trip of %q changed: %q vs %q", src, f, g)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(and (= x y)",         // missing paren
		"(= x)",                // arity
		"(not a b)",            // arity
		"(succ)",               // arity
		"(= x 5)",              // bare numeral
		"(+ x y)",              // non-numeral offset
		"(ite (< x y) x)",      // arity
		"(and (= x y)) extra",  // trailing tokens
		"(< (and a b) x)",      // bool in int position is parsed as function "and" → reserved
		"()",                   // empty list
		"((f) x)",              // operator must be a symbol
		"(= (ite a x y) true)", // "true" in int position is reserved
	}
	for _, src := range bad {
		b := NewBuilder()
		if _, err := Parse(src, b); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	b := NewBuilder()
	f, err := Parse("; header\n(and (= x y) ; inline\n (< x z))\n; footer", b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != BAnd {
		t.Fatalf("got %v", f)
	}
}

func TestParseSemantics(t *testing.T) {
	b := NewBuilder()
	f := MustParse("(and (<= x y) (>= y x) (> z y) (< x (+ x 1)))", b)
	it := MapInterp(map[string]int64{"x": 2, "y": 2, "z": 5}, nil)
	if !EvalBool(f, it) {
		t.Fatal("formula should hold under x=y=2, z=5")
	}
	it2 := MapInterp(map[string]int64{"x": 2, "y": 1, "z": 5}, nil)
	if EvalBool(f, it2) {
		t.Fatal("formula should fail when y < x")
	}
}

func TestStringForms(t *testing.T) {
	b := NewBuilder()
	x := b.Sym("x")
	f := b.PredApp("p", b.Fn("f", x, b.Succ(x)))
	s := f.String()
	for _, want := range []string{"p", "f", "succ", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestAdversarialNamesDoNotCollide(t *testing.T) {
	b := NewBuilder()
	// Without length-prefixed keys, Fn("a:1") and Fn("a", <node id 1>)
	// could alias, as could names embedding separators.
	x := b.Sym("x")
	weird := b.Sym("a:1")
	app := b.Fn("a", x)
	if weird == app {
		t.Fatal("distinct expressions aliased by key collision")
	}
	p1 := b.PredApp("p:2", x)
	p2 := b.PredApp("p", b.Sym(":2"), x)
	if p1 == p2 {
		t.Fatal("distinct predicate applications aliased")
	}
	if b.Fn("a:1") == b.Fn("a", b.Sym("1")) {
		t.Fatal("name/argument split ambiguity")
	}
}

func TestIsNumeralMatchesAtoi(t *testing.T) {
	for _, s := range []string{
		"", "+", "-", "0", "+0", "-0", "007", "42", "-42", "+42", "4x", "x4",
		"1_000", "0x10", " 1", "1 ", "٣", "--1", "+-1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "000000000000000000000000009223372036854775807",
		"99999999999999999999999999",
	} {
		_, err := strconv.Atoi(s)
		if got := isNumeral(s); got != (err == nil) {
			t.Errorf("isNumeral(%q) = %v, strconv.Atoi error %v", s, got, err)
		}
	}
	if QuoteSym("99999999999999999999") != "99999999999999999999" {
		t.Error("an out-of-range digit string is a plain symbol")
	}
}

func TestStringIsLinear(t *testing.T) {
	// Printing writes one growing buffer: a deep succ chain costs a few
	// buffer growths, not a string per level (quadratic in the depth).
	b := NewBuilder()
	f := b.Eq(b.Sym("x"), b.Offset(b.Sym("y"), MaxNumeral))
	if n := testing.AllocsPerRun(1, func() { _ = f.String() }); n > 64 {
		t.Errorf("String of a %d-deep succ chain made %.0f allocations", MaxNumeral, n)
	}
}

// numeralFlood is four offsets of 2^16 each: within the cap one by one, four
// times over it together. Each unit of an offset is a succ/pred node, so one
// such offset alone already allocates about 19 MB.
const numeralFlood = "(and (= a1 (+ b1 65536)) (= a2 (+ b2 65536)) (= a3 (+ b3 65536)) (= a4 (+ b4 65536)))"

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNumeralFlood checks that MaxNumeral caps the sum of the offset
// numerals of a formula, not each one: numeralFlood is rejected before its
// second offset is built, while a single offset at the cap still parses.
func TestNumeralFlood(t *testing.T) {
	var err error
	if n := allocated(func() { _, err = Parse(numeralFlood, NewBuilder()) }); err == nil || n > 25<<20 {
		t.Errorf("Parse(numeralFlood) = %v after allocating %.1f MB, want an error within 25 MB", err, float64(n)/(1<<20))
	} else if !strings.Contains(err.Error(), strconv.Itoa(MaxNumeral)) {
		t.Errorf("error %q does not name the cap %d", err, MaxNumeral)
	}
	for _, src := range []string{"(< x (+ x 65536))", "(< (- x 30000) (+ x 35536))"} {
		if _, err := Parse(src, NewBuilder()); err != nil {
			t.Errorf("Parse(%s): %v", src, err)
		}
	}
	for _, src := range []string{"(< x (+ x 65537))", "(< (- x 30000) (+ x 35537))"} {
		if _, err := Parse(src, NewBuilder()); err == nil {
			t.Errorf("Parse(%s) accepted numerals summing past the cap", src)
		}
	}
}
