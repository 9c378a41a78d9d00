package lazy_test

import (
	"context"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/core"
	"sufsat/internal/lazy"
	"sufsat/internal/suf"
)

// TestLazyModelFalsifiesFormula is the defining property of the lazy path's
// counterexample extraction (mirroring the eager pipeline's model test):
// whenever the lazy procedure reports Invalid, evaluating the original
// formula under the reconstructed interpretation must yield false. The
// serving layer's degradation ladder relies on this — a budget-blown request
// retried on the lazy path must still honor want_model.
func TestLazyModelFalsifiesFormula(t *testing.T) {
	for _, bm := range bench.InvalidVariants() {
		f, b := bm.Build()
		res := lazy.Decide(context.Background(), f, b, lazy.Options{})
		if res.Status != core.Invalid {
			t.Fatalf("%s: got %v want Invalid (err %v)", bm.Name, res.Status, res.Err)
		}
		if res.Model == nil {
			t.Fatalf("%s: invalid result without a model", bm.Name)
		}
		if suf.EvalBool(f, res.Model.Interp()) {
			t.Errorf("%s: model does not falsify the formula\nconsts = %v\nbools = %v",
				bm.Name, res.Model.Consts, res.Model.Bools)
		}
	}
}

// TestLazyModelHandConstructed spot-checks models on formulas with forced
// structure: symbolic Booleans, function congruence and offset chains.
func TestLazyModelHandConstructed(t *testing.T) {
	t.Run("ordering", func(t *testing.T) {
		b := suf.NewBuilder()
		x, y := b.Sym("x"), b.Sym("y")
		f := b.Lt(x, y) // not valid: any model must have x >= y
		res := lazy.Decide(context.Background(), f, b, lazy.Options{})
		if res.Status != core.Invalid || res.Model == nil {
			t.Fatalf("got %v model=%v", res.Status, res.Model)
		}
		if res.Model.Consts["x"] < res.Model.Consts["y"] {
			t.Errorf("model %v does not refute x < y", res.Model.Consts)
		}
	})
	t.Run("bool-const", func(t *testing.T) {
		b := suf.NewBuilder()
		f := b.Or(b.BoolSym("p"), b.Lt(b.Sym("x"), b.Sym("y")))
		res := lazy.Decide(context.Background(), f, b, lazy.Options{})
		if res.Status != core.Invalid || res.Model == nil {
			t.Fatalf("got %v model=%v", res.Status, res.Model)
		}
		if suf.EvalBool(f, res.Model.Interp()) {
			t.Errorf("model %v / %v does not falsify p or x<y", res.Model.Consts, res.Model.Bools)
		}
	})
	t.Run("congruence-break", func(t *testing.T) {
		b := suf.NewBuilder()
		x, y := b.Sym("x"), b.Sym("y")
		// f(x) = f(y) is not valid for distinct x, y.
		f := b.Eq(b.Fn("f", x), b.Fn("f", y))
		res := lazy.Decide(context.Background(), f, b, lazy.Options{})
		if res.Status != core.Invalid || res.Model == nil {
			t.Fatalf("got %v model=%v", res.Status, res.Model)
		}
		if suf.EvalBool(f, res.Model.Interp()) {
			t.Errorf("model does not falsify f(x)=f(y): consts=%v", res.Model.Consts)
		}
	})
	t.Run("offset-chain", func(t *testing.T) {
		b := suf.NewBuilder()
		x, y := b.Sym("x"), b.Sym("y")
		// x < succ(succ(y)) is not valid; a model needs x >= y+2.
		f := b.Lt(x, b.Succ(b.Succ(y)))
		res := lazy.Decide(context.Background(), f, b, lazy.Options{})
		if res.Status != core.Invalid || res.Model == nil {
			t.Fatalf("got %v model=%v", res.Status, res.Model)
		}
		if suf.EvalBool(f, res.Model.Interp()) {
			t.Errorf("model %v does not falsify x < y+2", res.Model.Consts)
		}
	})
}
