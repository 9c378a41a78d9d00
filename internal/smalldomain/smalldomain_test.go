package smalldomain

import (
	"fmt"
	"math/rand"
	"testing"

	"sufsat/internal/boolexpr"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// encodeSD encodes the analyzed formula through an Encoder and returns
// F_bool and the encoding statistics.
func encodeSD(info *sep.Info, b *suf.Builder, bb *boolexpr.Builder) (*boolexpr.Node, Stats, error) {
	e := NewEncoder(info, b, bb)
	f, err := e.Walker().Encode(info.Formula)
	return f, e.Stats(), err
}

// encodeEIJ encodes the analyzed formula through a per-constraint Encoder
// and returns F_bvar and F_trans as one Boolean formula.
func encodeEIJ(info *sep.Info, b *suf.Builder, bb *boolexpr.Builder) (bvar, trans *boolexpr.Node, err error) {
	e := perconstraint.NewEncoder(info, b, bb)
	if bvar, err = e.Walker().Encode(info.Formula); err != nil {
		return nil, nil, err
	}
	ts, err := e.TransSet()
	if err != nil {
		return nil, nil, err
	}
	trans = bb.True()
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
		trans = bb.And(trans, d)
	}
	return bvar, trans, nil
}

// sdSatisfiable encodes f with SD and reports Boolean satisfiability, which
// must equal satisfiability of f.
func sdSatisfiable(t *testing.T, f *suf.BoolExpr, b *suf.Builder, pconsts map[string]bool) bool {
	t.Helper()
	info, err := sep.Analyze(f, b, pconsts)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	enc, _, err := encodeSD(info, b, bb)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	boolexpr.AssertTrue(enc, s)
	switch s.Solve() {
	case sat.Sat:
		return true
	case sat.Unsat:
		return false
	}
	t.Fatal("solver returned Unknown")
	return false
}

func bruteSatisfiable(f *suf.BoolExpr, maxAbsOff int) bool {
	var consts, bools []string
	for v := range suf.FuncApps(f, 0) {
		consts = append(consts, v)
	}
	for v := range suf.PredApps(f, 0) {
		bools = append(bools, v)
	}
	d := int64(len(consts)*(2*maxAbsOff+1) + 1)
	total := int64(1)
	for range consts {
		total *= d
	}
	total <<= uint(len(bools))
	for idx := int64(0); idx < total; idx++ {
		rem := idx
		fns := make(map[string]int64, len(consts))
		for _, v := range consts {
			fns[v] = rem % d
			rem /= d
		}
		preds := make(map[string]bool, len(bools))
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

func TestPaperSDExample(t *testing.T) {
	// x ≥ y ∧ y ≥ z ∧ z ≥ succ(x): the paper's SD walkthrough, UNSAT.
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	f := b.AndN(b.Ge(x, y), b.Ge(y, z), b.Ge(z, b.Succ(x)))
	if sdSatisfiable(t, f, b, nil) {
		t.Fatal("paper example must be unsatisfiable")
	}
	g := b.AndN(b.Ge(x, y), b.Ge(y, z), b.Ge(z, x))
	if !sdSatisfiable(t, g, b, nil) {
		t.Fatal("relaxed example must be satisfiable")
	}
}

func TestBitWidthsFollowRanges(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.Lt(x, y) // two constants, no offsets: range = 2, width 1 each
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	_, st, err := encodeSD(info, b, bb)
	if err != nil {
		t.Fatal(err)
	}
	if st.BitVars != 2 {
		t.Fatalf("BitVars = %d, want 2 (1 bit per constant)", st.BitVars)
	}
	if st.SumRange != 2 || st.MaxRange != 2 {
		t.Fatalf("ranges = (%d,%d), want (2,2)", st.SumRange, st.MaxRange)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		m    int64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1000, 10}}
	for _, c := range cases {
		if got := bitsFor(c.m); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestOffsetArithmetic(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	// x+3 = y−2 ∧ x = y−5 is satisfiable (consistent).
	f := b.And(b.Eq(b.Offset(x, 3), b.Offset(y, -2)), b.Eq(x, b.Offset(y, -5)))
	if !sdSatisfiable(t, f, b, nil) {
		t.Fatal("consistent offsets must be satisfiable")
	}
	// x+3 = y ∧ x+4 = y is not.
	g := b.And(b.Eq(b.Offset(x, 3), y), b.Eq(b.Offset(x, 4), y))
	if sdSatisfiable(t, g, b, nil) {
		t.Fatal("inconsistent offsets must be unsatisfiable")
	}
}

func TestPConstantMaximalDiversity(t *testing.T) {
	b := suf.NewBuilder()
	x, vp1, vp2 := b.Sym("x"), b.Sym("vp1"), b.Sym("vp2")
	p := map[string]bool{"vp1": true, "vp2": true}
	// Distinct p-constants can never be equal…
	if sdSatisfiable(t, b.Eq(vp1, vp2), b, p) {
		t.Fatal("distinct p-constants must compare unequal")
	}
	// …nor equal to general terms, even with offsets…
	if sdSatisfiable(t, b.Eq(vp1, b.Offset(x, 2)), b, p) {
		t.Fatal("p-constant must differ from every general term")
	}
	if sdSatisfiable(t, b.Eq(b.Offset(vp1, 1), vp2), b, p) {
		t.Fatal("offset p-terms with distinct constants must differ")
	}
	// …but a p-constant equals itself at equal offsets.
	if !sdSatisfiable(t, b.Eq(b.Offset(vp1, 1), b.Offset(vp1, 1)), b, p) {
		t.Fatal("identical p-terms must be equal")
	}
	if sdSatisfiable(t, b.Eq(b.Offset(vp1, 1), vp1), b, p) {
		t.Fatal("p-term offset by 1 must differ from itself unshifted")
	}
}

func TestIteMux(t *testing.T) {
	b := suf.NewBuilder()
	x, y, z := b.Sym("x"), b.Sym("y"), b.Sym("z")
	c := b.BoolSym("c")
	// ITE(c,x,y) = z ∧ x<z ∧ y<z: forces both branches below z while one
	// must equal z → unsatisfiable.
	f := b.AndN(b.Eq(b.Ite(c, x, y), z), b.Lt(x, z), b.Lt(y, z))
	if sdSatisfiable(t, f, b, nil) {
		t.Fatal("want unsatisfiable")
	}
	g := b.AndN(b.Eq(b.Ite(c, x, y), z), b.Lt(x, z))
	if !sdSatisfiable(t, g, b, nil) {
		t.Fatal("want satisfiable with c=false, y=z")
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
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 120; iter++ {
		b := suf.NewBuilder()
		f := randomSepFormula(rng, b, 3, 3)
		want := bruteSatisfiable(f, 2)
		got := sdSatisfiable(t, f, b, nil)
		if got != want {
			t.Fatalf("iter %d: SD=%v brute=%v\nf = %v", iter, got, want, f)
		}
	}
}

func TestSDAgreesWithEIJ(t *testing.T) {
	// The two eager encodings must agree on satisfiability for arbitrary
	// separation formulas — the core cross-method property.
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 150; iter++ {
		b := suf.NewBuilder()
		f := randomSepFormula(rng, b, 4, 4)
		info, err := sep.Analyze(f, b, nil)
		if err != nil {
			t.Fatal(err)
		}

		bbSD := boolexpr.NewBuilder()
		encSD, _, err := encodeSD(info, b, bbSD)
		if err != nil {
			t.Fatal(err)
		}
		sSD := sat.New()
		boolexpr.AssertTrue(encSD, sSD)
		gotSD := sSD.Solve()

		bbE := boolexpr.NewBuilder()
		bvarE, transE, err := encodeEIJ(info, b, bbE)
		if err != nil {
			t.Fatal(err)
		}
		sE := sat.New()
		boolexpr.AssertTrue(bbE.And(transE, bvarE), sE)
		gotE := sE.Solve()

		if gotSD != gotE {
			t.Fatalf("iter %d: SD=%v EIJ=%v\nf = %v", iter, gotSD, gotE, f)
		}
	}
}

func TestEncodeStats(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.Lt(b.Offset(x, -1), b.Offset(y, 6))
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	_, st, err := encodeSD(info, b, bb)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxWidth == 0 || st.BitVars == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestDecodeConsts(t *testing.T) {
	b := suf.NewBuilder()
	x, y := b.Sym("x"), b.Sym("y")
	f := b.Lt(b.Offset(x, -2), y) // x's leaf offset −2 shifts its encoding
	info, err := sep.Analyze(f, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := boolexpr.NewBuilder()
	e := NewEncoder(info, b, bb)
	if _, err := e.Walker().Encode(info.Formula); err != nil {
		t.Fatal(err)
	}
	// Feed a concrete bit assignment: every known bit = 1.
	vals := e.DecodeConsts(func(name string) (bool, bool) { return true, true })
	if len(vals) != 2 {
		t.Fatalf("decoded %d constants, want 2: %v", len(vals), vals)
	}
	// x's vector stands for x + l(x) = x − 2, so the decoded x is bits+2.
	if vals["x"] <= vals["y"] {
		// x width and y width are equal; all-ones bits give equal raw values,
		// so the +2 un-shift must make x strictly larger.
		t.Fatalf("lshift decoding wrong: %v", vals)
	}
	// Unknown bits: nothing decoded.
	empty := e.DecodeConsts(func(name string) (bool, bool) { return false, false })
	if len(empty) != 0 {
		t.Fatalf("expected no decodes for unknown bits, got %v", empty)
	}
}
