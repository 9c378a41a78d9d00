package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sufsat/internal/perconstraint"
	"sufsat/internal/suf"
)

// catalog of SUF validity facts with known status. These exercise
// uninterpreted functions, predicates, ITE, succ/pred and the integral
// (non-dense) ordering.
type fact struct {
	name  string
	src   string
	valid bool
}

var catalog = []fact{
	{"func-congruence", "(=> (= x y) (= (f x) (f y)))", true},
	{"func-congruence-chain", "(=> (and (= x y) (= y z)) (= (f x) (f z)))", true},
	{"no-injectivity", "(=> (= (f x) (f y)) (= x y))", false},
	{"ite-distributes-over-f", "(= (ite c (f x) (f y)) (f (ite c x y)))", true},
	{"succ-increases", "(< x (+ x 1))", true},
	{"succ-pred-cancel", "(= (succ (pred x)) x)", true},
	{"fixpoint", "(=> (= (f x) x) (= (f (f x)) x))", true},
	{"trichotomy-fails-on-equal", "(or (< (f x) (f y)) (< (f y) (f x)))", false},
	{"antisymmetry", "(=> (and (<= x y) (<= y x)) (= x y))", true},
	{"integers-not-dense", "(=> (< x y) (<= (succ x) y))", true},
	{"strict-shift-invalid", "(=> (< x y) (< (succ x) y))", false},
	{"pred-congruence", "(=> (and (p x) (= x y)) (p y))", true},
	{"two-functions", "(=> (= x y) (= (ite (p x) (f x) (g x)) (ite (p y) (f y) (g y))))", true},
	{"transitivity", "(=> (and (< x y) (< y z)) (< x z))", true},
	{"offset-transitivity", "(=> (and (<= x (+ y 2)) (<= y (- z 3))) (<= x (- z 1)))", true},
	{"offset-too-tight", "(=> (and (<= x (+ y 2)) (<= y (- z 3))) (<= x (- z 2)))", false},
	{"bool-tautology", "(or b (not b))", true},
	{"plain-contradiction", "(and (< x y) (< y x))", false},
	{"nested-apps", "(=> (= x y) (= (f (g x)) (f (g y))))", true},
	{"queue-cycle", "(not (and (>= x y) (>= y z) (>= z (succ x))))", true},
	{"eq-under-ite", "(=> (= x y) (= (ite (< x y) x y) y))", true},
	{"shared-subterm", "(iff (= (f x) y) (= y (f x)))", true},
	{"max-upper-bound", "(>= (ite (< x y) y x) x)", true},
	{"max-is-one-of", "(or (= (ite (< x y) y x) x) (= (ite (< x y) y x) y))", true},
	{"min-max-order", "(<= (ite (< x y) x y) (ite (< x y) y x))", true},
	{"monotone-fails", "(=> (< x y) (< (f x) (f y)))", false},
	{"offset-chain-exact", "(=> (and (= x (+ y 3)) (= y (+ z 4))) (= x (+ z 7)))", true},
	{"offset-chain-off-by-one", "(=> (and (= x (+ y 3)) (= y (+ z 4))) (= x (+ z 8)))", false},
	{"pred-under-ite", "(=> (p x) (p (ite (= x x) x y)))", true},
	{"two-cycles", "(not (and (< a b) (< b a) (< c d)))", true},
	{"between", "(=> (and (< x z) (< z y)) (< (+ x 1) y))", true},
	{"between-tight", "(=> (and (< x z) (< z y)) (< (+ x 2) y))", false},
	{"nested-ite-collapse", "(= (ite c (ite c x y) z) (ite c x z))", true},
	{"uf-of-offsets", "(=> (= x y) (= (f (+ x 2)) (f (+ y 2))))", true},
	{"uf-offset-mismatch", "(=> (= x y) (= (f (+ x 2)) (f (+ y 3))))", false},
	{"distinct-triangle", "(=> (and (< a b) (< b c)) (not (= a c)))", true},
	{"bool-case-split", "(or (= (ite c x y) x) (= (ite c x y) y))", true},
}

func TestCatalogAllMethods(t *testing.T) {
	for _, method := range []Method{Hybrid, SD, EIJ} {
		for _, fc := range catalog {
			t.Run(fmt.Sprintf("%s/%s", method, fc.name), func(t *testing.T) {
				b := suf.NewBuilder()
				f := suf.MustParse(fc.src, b)
				res := Decide(f, b, Options{Method: method})
				if res.Err != nil {
					t.Fatalf("error: %v", res.Err)
				}
				want := Invalid
				if fc.valid {
					want = Valid
				}
				if res.Status != want {
					t.Fatalf("Decide(%s) = %v, want %v", fc.src, res.Status, want)
				}
			})
		}
	}
}

func TestHybridThresholdExtremes(t *testing.T) {
	// SEP_THOLD below every SepCnt reduces HYBRID to SD, high thresholds to
	// EIJ; both must still give correct answers.
	for _, fc := range catalog {
		b := suf.NewBuilder()
		f := suf.MustParse(fc.src, b)
		want := Invalid
		if fc.valid {
			want = Valid
		}
		loRes := Decide(f, b, Options{Method: Hybrid, SepThreshold: -1})
		if loRes.Status != want {
			t.Errorf("%s with threshold -1: got %v, want %v", fc.name, loRes.Status, want)
		}
		hiRes := Decide(f, b, Options{Method: Hybrid, SepThreshold: 1 << 20})
		if hiRes.Status != want {
			t.Errorf("%s with huge threshold: got %v, want %v", fc.name, hiRes.Status, want)
		}
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
		switch rng.Intn(4) {
		case 0:
			return b.Fn("f", intE(d-1))
		case 1:
			return b.Fn("g", intE(d-1), intE(d-1))
		case 2:
			return b.Ite(boolE(d-1), intE(d-1), intE(d-1))
		default:
			return b.Offset(intE(d-1), rng.Intn(3)-1)
		}
	}
	boolE = func(d int) *suf.BoolExpr {
		if d == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				return b.Eq(intE(d), intE(d))
			case 1:
				return b.Lt(intE(d), intE(d))
			case 2:
				return b.PredApp("q", intE(d))
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

func TestMethodsAgreeOnRandomFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 100; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		rh := Decide(f, b, Options{Method: Hybrid})
		rs := Decide(f, b, Options{Method: SD})
		re := Decide(f, b, Options{Method: EIJ})
		if rh.Err != nil || rs.Err != nil || re.Err != nil {
			t.Fatalf("iter %d: errors %v/%v/%v", iter, rh.Err, rs.Err, re.Err)
		}
		if rh.Status != rs.Status || rs.Status != re.Status {
			t.Fatalf("iter %d: HYBRID=%v SD=%v EIJ=%v\nf = %v",
				iter, rh.Status, rs.Status, re.Status, f)
		}
		// If a falsifying interpretation exists, random search often finds
		// it; and if one is found, the result must be Invalid.
		for trial := 0; trial < 20; trial++ {
			it := suf.RandomInterp(rng, 6)
			if !suf.EvalBool(f, it) {
				if rh.Status != Invalid {
					t.Fatalf("iter %d: random interpretation falsifies but Decide says %v\nf = %v",
						iter, rh.Status, f)
				}
				break
			}
		}
	}
}

func TestHybridMixedThreshold(t *testing.T) {
	// Build a formula with two classes: a tiny one and one with many
	// predicates; a mid threshold must route them to different encoders.
	b := suf.NewBuilder()
	f := b.True()
	// Class A: chain over 8 constants → many separation predicates.
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			f = b.And(f, b.Implies(
				b.Lt(b.Sym(fmt.Sprintf("a%d", i)), b.Sym(fmt.Sprintf("a%d", j))),
				b.Not(b.Lt(b.Sym(fmt.Sprintf("a%d", j)), b.Sym(fmt.Sprintf("a%d", i))))))
		}
	}
	// Class B: one predicate.
	f = b.And(f, b.Implies(b.Lt(b.Sym("b0"), b.Sym("b1")), b.Lt(b.Sym("b0"), b.Sym("b1"))))
	res := Decide(f, b, Options{Method: Hybrid, SepThreshold: 10})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Status != Valid {
		t.Fatalf("status = %v, want Valid", res.Status)
	}
	if res.Stats.SDClasses != 1 {
		t.Errorf("SDClasses = %d, want 1 (big class via SD)", res.Stats.SDClasses)
	}
	if res.Stats.Classes != 2 {
		t.Errorf("Classes = %d, want 2", res.Stats.Classes)
	}
	if res.Stats.SDStats.BitVars == 0 || res.Stats.EIJStats.PredVars == 0 {
		t.Errorf("expected both encoders used: %+v / %+v", res.Stats.SDStats, res.Stats.EIJStats)
	}
}

func TestTranslationLimitSurfacesAsResourceOut(t *testing.T) {
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("v%d", i)), b.Sym(fmt.Sprintf("v%d", j))),
				b.Lt(b.Sym(fmt.Sprintf("v%d", j)), b.Sym(fmt.Sprintf("v%d", i)))))
		}
	}
	res := Decide(f, b, Options{Method: EIJ, MaxTransClauses: 5})
	if res.Status != ResourceOut || !errors.Is(res.Err, perconstraint.ErrTranslationLimit) {
		t.Fatalf("got (%v, %v), want translation-limit ResourceOut", res.Status, res.Err)
	}
}

func TestDeadlineTimeout(t *testing.T) {
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("v%d", i)), b.Sym(fmt.Sprintf("v%d", j))),
				b.Lt(b.Sym(fmt.Sprintf("v%d", j)), b.Sym(fmt.Sprintf("v%d", i)))))
		}
	}
	res := Decide(f, b, Options{Method: SD, Timeout: time.Nanosecond})
	if res.Status != Timeout {
		t.Fatalf("got %v, want Timeout with 1ns deadline", res.Status)
	}
}

func TestStatsPopulated(t *testing.T) {
	b := suf.NewBuilder()
	f := suf.MustParse("(=> (and (= (f x) y) (< x y)) (= (f x) y))", b)
	res := Decide(f, b, Options{})
	if res.Status != Valid {
		t.Fatalf("status = %v", res.Status)
	}
	st := res.Stats
	if st.SUFNodes == 0 || st.BoolNodes == 0 || st.CNFClauses == 0 {
		t.Errorf("size stats missing: %+v", st)
	}
	if st.TotalTime <= 0 || st.EncodeTime <= 0 {
		t.Errorf("time stats missing: %+v", st)
	}
}

func TestSelectThreshold(t *testing.T) {
	// Two well-separated clusters of normalized run-times: fast benchmarks
	// up to 676 separation predicates (the paper's n_k), slow ones beyond.
	samples := []Sample{
		{SepPreds: 10, NormTime: 0.5},
		{SepPreds: 50, NormTime: 0.7},
		{SepPreds: 200, NormTime: 1.1},
		{SepPreds: 676, NormTime: 1.6},
		{SepPreds: 900, NormTime: 90},
		{SepPreds: 1500, NormTime: 105},
		{SepPreds: 4000, NormTime: 118},
	}
	if got := SelectThreshold(samples); got != 700 {
		t.Fatalf("SelectThreshold = %d, want 700", got)
	}
	if got := SelectThreshold(nil); got != DefaultSepThreshold {
		t.Fatalf("degenerate input: got %d, want default", got)
	}
}

func TestMethodAndStatusStrings(t *testing.T) {
	if Hybrid.String() != "HYBRID" || SD.String() != "SD" || EIJ.String() != "EIJ" {
		t.Error("Method strings wrong")
	}
	if Valid.String() != "valid" || Invalid.String() != "invalid" || Timeout.String() != "timeout" {
		t.Error("Status strings wrong")
	}
}

func TestAckermannAgreesWithITEScheme(t *testing.T) {
	// Both elimination schemes must produce the same verdicts; only the
	// encoding efficiency differs (the positive-equality ablation).
	for _, fc := range catalog {
		b := suf.NewBuilder()
		f := suf.MustParse(fc.src, b)
		want := Invalid
		if fc.valid {
			want = Valid
		}
		res := Decide(f, b, Options{Ackermann: true})
		if res.Status != want {
			t.Errorf("%s via Ackermann: got %v, want %v", fc.name, res.Status, want)
		}
	}
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 120; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		ra := Decide(f, b, Options{Ackermann: true})
		ri := Decide(f, b, Options{})
		if ra.Err != nil || ri.Err != nil {
			t.Fatalf("iter %d: %v / %v", iter, ra.Err, ri.Err)
		}
		if ra.Status != ri.Status {
			t.Fatalf("iter %d: ackermann=%v ite=%v\nf = %v", iter, ra.Status, ri.Status, f)
		}
	}
}

func TestAckermannModelsFalsify(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	checked := 0
	for iter := 0; iter < 150; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		res := Decide(f, b, Options{Ackermann: true})
		if res.Status != Invalid {
			continue
		}
		checked++
		if suf.EvalBool(f, res.Model.Interp()) {
			t.Fatalf("iter %d: Ackermann model does not falsify\nf = %v", iter, f)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d invalid cases", checked)
	}
}
