package smtlib

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/suf"
)

// checkSat decides SMT-LIB satisfiability through the SUF pipeline:
// sat(F) ⟺ ¬ valid(¬F).
func checkSat(t *testing.T, src string) bool {
	t.Helper()
	b := suf.NewBuilder()
	script, err := ParseScript(src, b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !script.CheckSat {
		t.Fatalf("script has no (check-sat)")
	}
	res := core.Decide(b.Not(script.Formula()), b, core.Options{Timeout: 30 * time.Second})
	switch res.Status {
	case core.Invalid:
		return true // ¬F falsifiable ⇒ F satisfiable
	case core.Valid:
		return false
	}
	t.Fatalf("decide: %v (%v)", res.Status, res.Err)
	return false
}

func TestQFIDLBasics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		sat  bool
	}{
		{"simple-sat", `
			(set-logic QF_IDL)
			(declare-fun x () Int)
			(declare-fun y () Int)
			(assert (< x y))
			(check-sat)`, true},
		{"cycle-unsat", `
			(set-logic QF_IDL)
			(declare-const x Int) (declare-const y Int) (declare-const z Int)
			(assert (>= x y)) (assert (>= y z)) (assert (>= z (+ x 1)))
			(check-sat)`, false},
		{"difference-form", `
			(set-logic QF_IDL)
			(declare-const x Int) (declare-const y Int)
			(assert (<= (- x y) 3))
			(assert (>= (- x y) 5))
			(check-sat)`, false},
		{"difference-form-sat", `
			(set-logic QF_IDL)
			(declare-const x Int) (declare-const y Int)
			(assert (<= (- x y) 3))
			(assert (>= (- x y) 2))
			(check-sat)`, true},
		{"literals", `
			(set-logic QF_IDL)
			(declare-const x Int)
			(assert (> x 5))
			(assert (< x 7))
			(check-sat)`, true}, // x = 6
		{"literals-unsat", `
			(set-logic QF_IDL)
			(declare-const x Int)
			(assert (> x 5))
			(assert (< x 6))
			(check-sat)`, false}, // integers are not dense
		{"negative-literal", `
			(set-logic QF_IDL)
			(declare-const x Int)
			(assert (= x (- 4)))
			(assert (< x 0))
			(check-sat)`, true},
		{"distinct", `
			(set-logic QF_IDL)
			(declare-const a Int) (declare-const b Int) (declare-const c Int)
			(assert (distinct a b c))
			(assert (= a b))
			(check-sat)`, false},
		{"chained-less", `
			(set-logic QF_IDL)
			(declare-const a Int) (declare-const b Int) (declare-const c Int)
			(assert (< a b c))
			(assert (= a c))
			(check-sat)`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkSat(t, c.src); got != c.sat {
				t.Fatalf("got sat=%v, want %v", got, c.sat)
			}
		})
	}
}

func TestQFUFIDL(t *testing.T) {
	cases := []struct {
		name string
		src  string
		sat  bool
	}{
		{"congruence-unsat", `
			(set-logic QF_UFIDL)
			(declare-fun f (Int) Int)
			(declare-const x Int) (declare-const y Int)
			(assert (= x y))
			(assert (distinct (f x) (f y)))
			(check-sat)`, false},
		{"no-injectivity-sat", `
			(set-logic QF_UFIDL)
			(declare-fun f (Int) Int)
			(declare-const x Int) (declare-const y Int)
			(assert (= (f x) (f y)))
			(assert (distinct x y))
			(check-sat)`, true},
		{"predicate", `
			(set-logic QF_UFIDL)
			(declare-fun p (Int) Bool)
			(declare-const x Int) (declare-const y Int)
			(assert (p x)) (assert (not (p y))) (assert (= x y))
			(check-sat)`, false},
		{"ite-int", `
			(set-logic QF_UFIDL)
			(declare-fun f (Int) Int)
			(declare-const x Int) (declare-const y Int)
			(assert (= (ite (< x y) x y) (+ y 1)))
			(assert (<= x y))
			(check-sat)`, false},
		{"function-offset", `
			(set-logic QF_UFIDL)
			(declare-fun f (Int) Int)
			(declare-const x Int)
			(assert (= (f (+ x 2)) (+ (f (+ x 2)) 0)))
			(check-sat)`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkSat(t, c.src); got != c.sat {
				t.Fatalf("got sat=%v, want %v", got, c.sat)
			}
		})
	}
}

func TestLetBindings(t *testing.T) {
	src := `
		(set-logic QF_IDL)
		(declare-const x Int) (declare-const y Int)
		(assert (let ((a (< x y)) (b (+ x 1)))
			(and a (= b y))))
		(check-sat)`
	if !checkSat(t, src) {
		t.Fatal("want sat: y = x+1 satisfies both")
	}
	// Nested lets with shadowing: inner a refers to outer scope in its
	// binding, then shadows.
	src2 := `
		(set-logic QF_IDL)
		(declare-const x Int)
		(assert (let ((a (< x x)))
			(let ((a (not a)))
				a)))
		(check-sat)`
	if !checkSat(t, src2) {
		t.Fatal("want sat: ¬(x<x) is true")
	}
}

func TestBoolOps(t *testing.T) {
	src := `
		(set-logic QF_IDL)
		(declare-const p Bool) (declare-const q Bool)
		(assert (xor p q))
		(assert (= p q))
		(check-sat)`
	if checkSat(t, src) {
		t.Fatal("xor ∧ iff must be unsat")
	}
	src2 := `
		(set-logic QF_IDL)
		(declare-const p Bool)
		(assert (=> p p))
		(check-sat)`
	if !checkSat(t, src2) {
		t.Fatal("p → p is sat")
	}
}

func TestQuotedSymbols(t *testing.T) {
	src := `
		(set-logic QF_IDL)
		(declare-const |my weird name!| Int)
		(assert (< |my weird name!| (+ |my weird name!| 1)))
		(check-sat)`
	if !checkSat(t, src) {
		t.Fatal("quoted symbols must work")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`(assert (< x y))`,                            // undeclared
		`(declare-fun f (Real) Int)`,                  // bad sort
		`(declare-fun f () Real)`,                     // bad return sort
		`(frobnicate)`,                                // unknown command
		`(declare-const x Int)(assert (+ x 1))`,       // non-Bool assert
		`(declare-const x Int)(assert (< x`,           // truncated
		`(declare-const x Int)(assert (< (+ x x) 0))`, // two positive terms
		`(declare-const x Int)(declare-const y Int)(declare-const z Int)
		 (assert (<= (- (+ x z) y) 0))`, // x+z−y outside IDL
		`(assert "strings are not terms")`,
	}
	for _, src := range bad {
		b := suf.NewBuilder()
		if _, err := ParseScript(src, b); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestScriptMetadata(t *testing.T) {
	b := suf.NewBuilder()
	script, err := ParseScript(`
		; a comment
		(set-logic QF_UFIDL)
		(set-info :source "somewhere")
		(declare-fun f (Int Int) Int)
		(declare-const c Int)
		(assert true)
		(check-sat)
		(exit)`, b)
	if err != nil {
		t.Fatal(err)
	}
	if script.Logic != "QF_UFIDL" || !script.CheckSat {
		t.Fatalf("metadata wrong: %+v", script)
	}
	if script.IntFuns["f"] != 2 || script.IntFuns["c"] != 0 {
		t.Fatalf("declarations wrong: %v", script.IntFuns)
	}
	if len(script.Assertions) != 1 {
		t.Fatalf("assertions = %d", len(script.Assertions))
	}
}

func TestFormulaConjunction(t *testing.T) {
	b := suf.NewBuilder()
	script, err := ParseScript(`
		(declare-const x Int) (declare-const y Int)
		(assert (< x y))
		(assert (< y x))
		(check-sat)`, b)
	if err != nil {
		t.Fatal(err)
	}
	f := script.Formula()
	if !strings.Contains(f.String(), "and") {
		t.Fatalf("conjunction missing: %v", f)
	}
}

// TestNumeralFlood checks that suf.MaxNumeral caps the sum of the offsets a
// script builds, not each one: four offsets of 2^16 are rejected before the
// second is built (one alone allocates about 19 MB of succ/pred nodes),
// while a single offset at the cap still translates.
func TestNumeralFlood(t *testing.T) {
	var decls, flood strings.Builder
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&decls, "(declare-fun a%d () Int)(declare-fun b%d () Int)", i, i)
		fmt.Fprintf(&flood, "(assert (= a%d (+ b%d 65536)))", i, i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseScript(decls.String()+flood.String(), suf.NewBuilder())
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n > 25<<20 {
		t.Errorf("four offsets of 2^16: %v after allocating %.1f MB, want an error within 25 MB", err, float64(n)/(1<<20))
	} else if !strings.Contains(err.Error(), strconv.Itoa(suf.MaxNumeral)) {
		t.Errorf("error %q does not name the cap %d", err, suf.MaxNumeral)
	}
	for _, src := range []string{
		"(assert (= a1 (+ b1 65536)))",
		"(assert (< a1 (- b1 65536)))",
		"(assert (distinct (+ a1 30000) (- b1 35536)))",
	} {
		if _, err := ParseScript(decls.String()+src, suf.NewBuilder()); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// TestDistinctFlood: distinct over n arguments expands into n(n−1)/2
// disequalities, so a 2,000-argument distinct must be rejected before it
// builds its two million pairs, with an error naming the cap. The cap holds
// per script and at both sorts.
func TestDistinctFlood(t *testing.T) {
	// script declares n constants of sort and asserts k distincts over them.
	script := func(sort string, n, k int) string {
		var sb, args strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "(declare-fun v%d () %s)", i, sort)
			fmt.Fprintf(&args, " v%d", i)
		}
		for ; k > 0; k-- {
			fmt.Fprintf(&sb, "(assert (distinct%s))", args.String())
		}
		return sb.String()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseScript(script("Int", 2000, 1), suf.NewBuilder())
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n > 25<<20 {
		t.Errorf("2,000-argument distinct: %v after allocating %.1f MB, want an error within 25 MB", err, float64(n)/(1<<20))
	} else if !strings.Contains(err.Error(), strconv.Itoa(MaxDistinctPairs)) {
		t.Errorf("error %q does not name the cap %d", err, MaxDistinctPairs)
	}
	// Two 128-argument distincts make 16,256 pairs, within the cap; a third
	// passes it.
	if _, err := ParseScript(script("Int", 128, 2), suf.NewBuilder()); err != nil {
		t.Errorf("two 128-argument distincts: %v", err)
	}
	if _, err := ParseScript(script("Int", 128, 3), suf.NewBuilder()); err == nil {
		t.Error("three 128-argument distincts (24,384 pairs) passed the cap")
	}
	if _, err := ParseScript(script("Bool", 200, 1), suf.NewBuilder()); err == nil {
		t.Error("a 200-argument Bool distinct (19,900 pairs) passed the cap")
	}
}

// TestEqualityOfDifference checks that = reads both sides in difference
// form, so a difference of constants can be compared with a literal.
func TestEqualityOfDifference(t *testing.T) {
	const decls = "(declare-const x Int)(declare-const y Int)"
	if checkSat(t, decls+"(assert (= (- x y) 3))(assert (< x y))(check-sat)") {
		t.Error("x − y = 3 ∧ x < y must be unsat")
	}
	if !checkSat(t, decls+"(assert (= (- x y) 3))(assert (= x 10))(check-sat)") {
		t.Error("x − y = 3 ∧ x = 10 must be sat")
	}
	if checkSat(t, decls+"(assert (= (- x y) 3))(assert (= y 7))(assert (distinct x 10))(check-sat)") {
		t.Error("x − y = 3 ∧ y = 7 ∧ x ≠ 10 must be unsat")
	}
}
