package lazy

import (
	"context"
	"fmt"
	"math/rand"
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

func TestAgreesWithEagerMethods(t *testing.T) {
	// The lazy procedure uses a wholly different theory path (incremental
	// Bellman–Ford instead of eager transitivity constraints), so agreement
	// with the eager pipeline is a strong cross-check of both.
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 100; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		rl := Decide(context.Background(), f, b, Options{})
		rh := core.Decide(f, b, core.Options{Method: core.Hybrid})
		if rl.Err != nil || rh.Err != nil {
			t.Fatalf("iter %d: errors %v / %v", iter, rl.Err, rh.Err)
		}
		if rl.Status != rh.Status {
			t.Fatalf("iter %d: lazy=%v hybrid=%v\nf = %v", iter, rl.Status, rh.Status, f)
		}
	}
}

func TestIterationsCounted(t *testing.T) {
	// The queue-cycle formula needs at least one theory refutation round.
	b := suf.NewBuilder()
	f := suf.MustParse("(not (and (>= x y) (>= y z) (>= z (succ x))))", b)
	res := Decide(context.Background(), f, b, Options{})
	if res.Status != core.Valid {
		t.Fatalf("got %v", res.Status)
	}
	if res.Stats.Iterations < 1 || res.Stats.TheoryConflicts < 1 {
		t.Fatalf("expected at least one theory refutation, got %+v", res.Stats)
	}
	if res.Stats.PredVars == 0 {
		t.Fatalf("abstraction should have predicate variables")
	}
}

func TestDeadline(t *testing.T) {
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("v%d", i)), b.Sym(fmt.Sprintf("v%d", j))),
				b.Lt(b.Sym(fmt.Sprintf("v%d", j)), b.Sym(fmt.Sprintf("v%d", i)))))
		}
	}
	res := Decide(context.Background(), f, b, Options{Timeout: time.Nanosecond})
	if res.Status != core.Timeout {
		t.Fatalf("got %v, want Timeout", res.Status)
	}
}

// TestDiamondIterationsGrowExponentially pins the mechanism behind the
// paper's Figure 6: each spurious assignment kills exactly one diamond-path
// negative cycle, so the lazy loop needs one iteration per path combination
// (2^n), while the eager encodings stay polynomial.
func TestDiamondIterationsGrowExponentially(t *testing.T) {
	iters := make([]int, 0, 3)
	for _, n := range []int{4, 6, 8} {
		b := suf.NewBuilder()
		d := func(i int) *suf.IntExpr { return b.Sym(fmt.Sprintf("d%d", i)) }
		chain := b.True()
		for i := 0; i < n; i++ {
			yi := b.Sym(fmt.Sprintf("y%d", i))
			zi := b.Sym(fmt.Sprintf("z%d", i))
			left := b.And(b.Le(d(i), yi), b.Le(yi, d(i+1)))
			right := b.And(b.Le(d(i), zi), b.Le(zi, d(i+1)))
			chain = b.And(chain, b.Or(left, right))
		}
		f := b.Implies(chain, b.Le(d(0), d(n)))
		res := Decide(context.Background(), f, b, Options{})
		if res.Status != core.Valid {
			t.Fatalf("n=%d: got %v", n, res.Status)
		}
		iters = append(iters, res.Stats.Iterations)
	}
	// Expect at least 2^n iterations (one per path) and clear growth.
	if iters[0] < 16 || iters[1] < 64 || iters[2] < 256 {
		t.Fatalf("iterations %v, expected ≥ 2^n growth", iters)
	}
	if !(iters[0] < iters[1] && iters[1] < iters[2]) {
		t.Fatalf("iterations must grow: %v", iters)
	}
}

func TestTheoryConflictClausesAreMinimalCycles(t *testing.T) {
	// The conflict clause for a spurious assignment uses only the literals of
	// one negative cycle; on a 3-cycle formula the count of theory conflicts
	// stays tiny.
	b := suf.NewBuilder()
	f := suf.MustParse("(not (and (>= x y) (>= y z) (>= z (succ x))))", b)
	res := Decide(context.Background(), f, b, Options{})
	if res.Status != core.Valid {
		t.Fatalf("got %v", res.Status)
	}
	if res.Stats.TheoryConflicts > 3 {
		t.Fatalf("theory conflicts = %d, expected ≤ 3 for a single cycle", res.Stats.TheoryConflicts)
	}
}
