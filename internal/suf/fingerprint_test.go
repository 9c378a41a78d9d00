package suf

import (
	"strings"
	"testing"
)

func fpOf(t *testing.T, src string) string {
	t.Helper()
	b := NewBuilder()
	f, err := Parse(src, b)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Fingerprint(f)
}

func wantCollide(t *testing.T, a, b string) {
	t.Helper()
	fa, fb := fpOf(t, a), fpOf(t, b)
	if fa != fb {
		t.Errorf("want equal fingerprints:\n  %s\n  %s\n  %s != %s", a, b, fa[:16], fb[:16])
	}
}

func wantDistinct(t *testing.T, a, b string) {
	t.Helper()
	fa, fb := fpOf(t, a), fpOf(t, b)
	if fa == fb {
		t.Errorf("want distinct fingerprints:\n  %s\n  %s\n  both %s", a, b, fa[:16])
	}
}

func TestFingerprintAlphaRenaming(t *testing.T) {
	// Consistent renaming of constants, functions, predicates and Boolean
	// symbols must not change the fingerprint.
	wantCollide(t,
		"(=> (= x y) (= (f x) (f y)))",
		"(=> (= u v) (= (g u) (g v)))")
	wantCollide(t,
		"(and (p a b) (or q (< a (succ b))))",
		"(and (r c d) (or s (< c (succ d))))")
	wantCollide(t,
		"(= (ite b x y) (ite b x y))",
		"(= (ite c u v) (ite c u v))")
	// Swapping two names is a renaming too.
	wantCollide(t,
		"(=> (= x y) (= (f x) (g y)))",
		"(=> (= y x) (= (g y) (f x)))")
}

func TestFingerprintCommutativePermutation(t *testing.T) {
	wantCollide(t, "(and (= x y) (< x z))", "(and (< x z) (= x y))")
	wantCollide(t, "(or (= x y) (or p q))", "(or (or q p) (= y x))")
	wantCollide(t, "(= (f x) (g y))", "(= (g y) (f x))")
	// The hard case: the permuted children have identical name-blind
	// shapes, so only WL refinement of the shared symbol y separates the
	// traversal orders.
	wantCollide(t, "(and (= x y) (= y z))", "(and (= y z) (= x y))")
	wantCollide(t,
		"(and (and (= x y) (= y z)) (< x w))",
		"(and (< x w) (and (= y z) (= y x)))")
	// Commutativity composed with renaming: x~y ∧ x~z is y↔x-renamed
	// y~x ∧ y~z, i.e. the hub constant moved.
	wantCollide(t, "(and (= x y) (= x z))", "(and (= x y) (= y z))")
}

func TestFingerprintTiesResolvedByContext(t *testing.T) {
	// x and y tie in every bottom-up digest, so the Eq's operand order
	// decides which is numbered first; only their argument positions under
	// the non-commutative A tell them apart, which one-level parent
	// contexts do not see.
	wantCollide(t,
		"(and (= x y) (A (f x) (f y)))",
		"(and (A (f x) (f y)) (= y x))")
	wantCollide(t,
		"(and (p (g (g x)) (g (g y))) (= x y))",
		"(and (= y x) (p (g (g x)) (g (g y))))")
}

func TestFingerprintClone(t *testing.T) {
	b1 := NewBuilder()
	f1 := MustParse("(=> (and (= x (succ y)) (p x y)) (= (f x q) (f x q)))", b1)
	b2 := NewBuilder()
	f2 := Clone(f1, b2)
	if Fingerprint(f1) != Fingerprint(f2) {
		t.Errorf("clone changed fingerprint")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	// Inequality is NOT commutative. Bare (< x y) vs (< y x) are
	// alpha-equivalent (swap x and y), so the orientation must be pinned by
	// context that survives renaming.
	wantDistinct(t, "(and (< x y) (= x z))", "(and (< y x) (= x z))")
	// succ vs pred.
	wantDistinct(t, "(= x (succ y))", "(= x (pred y))")
	// Repeated symbol vs fresh symbol: f(x)=f(x) is a tautology shape,
	// f(x)=f(y) is not.
	wantDistinct(t, "(= (f x) (f x))", "(= (f x) (f y))")
	// Same function twice vs two different functions.
	wantDistinct(t, "(= (f (f x)) y)", "(= (f (g x)) y)")
	// Shared constant vs disjoint constants across conjuncts.
	wantDistinct(t, "(and (= x y) (= y z))", "(and (= x y) (= w z))")
	// Arity matters.
	wantDistinct(t, "(= (f x) y)", "(= (f x x) y)")
	// Predicate vs its negation.
	wantDistinct(t, "(and p q)", "(and p (not q))")
	// Ite branch order matters (anchored on x so the swap is not a
	// renaming).
	wantDistinct(t, "(= (ite b x y) x)", "(= (ite b y x) x)")
	// And vs Or.
	wantDistinct(t, "(and p q)", "(or p q)")
}

func TestFingerprintSharingInsensitive(t *testing.T) {
	// The same formula built with and without an explicitly shared subterm
	// is the same DAG after hash-consing, hence the same fingerprint; but a
	// formula that *mentions* a subterm twice must not collide with one
	// mentioning two lookalike distinct subterms.
	wantDistinct(t,
		"(and (= (f x) a) (= (f x) b))",
		"(and (= (f x) a) (= (f y) b))")
}

func TestFingerprintDeterministic(t *testing.T) {
	srcs := []string{
		"(=> (= x y) (= (f x) (f y)))",
		"(and (= x y) (= y z))",
		"(or (p a) (or (p b) (p c)))",
	}
	for _, src := range srcs {
		if fpOf(t, src) != fpOf(t, src) {
			t.Errorf("nondeterministic fingerprint for %s", src)
		}
	}
}

// mirror rebuilds f in dst with every commutative connective's operands
// swapped — a maximal argument-order permutation.
func mirror(f *BoolExpr, dst *Builder) *BoolExpr {
	var mb func(*BoolExpr) *BoolExpr
	var mi func(*IntExpr) *IntExpr
	memoB := map[*BoolExpr]*BoolExpr{}
	memoI := map[*IntExpr]*IntExpr{}
	mi = func(t *IntExpr) *IntExpr {
		if r, ok := memoI[t]; ok {
			return r
		}
		var r *IntExpr
		switch t.kind {
		case IFunc:
			args := make([]*IntExpr, len(t.args))
			for i, a := range t.args {
				args[i] = mi(a)
			}
			r = dst.Fn(t.fn, args...)
		case ISucc:
			r = dst.Succ(mi(t.a))
		case IPred:
			r = dst.Pred(mi(t.a))
		case IIte:
			r = dst.Ite(mb(t.cond), mi(t.a), mi(t.b))
		}
		memoI[t] = r
		return r
	}
	mb = func(n *BoolExpr) *BoolExpr {
		if r, ok := memoB[n]; ok {
			return r
		}
		var r *BoolExpr
		switch n.kind {
		case BTrue, BFalse:
			r = dst.Const(n.kind == BTrue)
		case BNot:
			r = dst.Not(mb(n.l))
		case BAnd:
			r = dst.And(mb(n.r), mb(n.l))
		case BOr:
			r = dst.Or(mb(n.r), mb(n.l))
		case BEq:
			r = dst.Eq(mi(n.t2), mi(n.t1))
		case BLt:
			r = dst.Lt(mi(n.t1), mi(n.t2))
		case BPred:
			args := make([]*IntExpr, len(n.args))
			for i, a := range n.args {
				args[i] = mi(a)
			}
			r = dst.PredApp(n.pn, args...)
		}
		memoB[n] = r
		return r
	}
	return mb(f)
}

// rename applies a consistent "r!"-prefix renaming to every nullary
// constant and Boolean symbol via Subst, rebuilding in a fresh builder.
func renameLeaves(f *BoolExpr, dst *Builder) *BoolExpr {
	ints := map[string]*IntExpr{}
	bools := map[string]*BoolExpr{}
	var wb func(*BoolExpr)
	var wi func(*IntExpr)
	seenB := map[*BoolExpr]bool{}
	seenI := map[*IntExpr]bool{}
	wi = func(t *IntExpr) {
		if seenI[t] {
			return
		}
		seenI[t] = true
		if t.kind == IFunc && len(t.args) == 0 {
			ints[t.fn] = dst.Fn("r!" + t.fn)
		}
		for _, a := range t.args {
			wi(a)
		}
		if t.cond != nil {
			wb(t.cond)
		}
		if t.a != nil {
			wi(t.a)
		}
		if t.b != nil {
			wi(t.b)
		}
	}
	wb = func(n *BoolExpr) {
		if seenB[n] {
			return
		}
		seenB[n] = true
		if n.kind == BPred && len(n.args) == 0 {
			bools[n.pn] = dst.PredApp("r!" + n.pn)
		}
		for _, a := range n.args {
			wi(a)
		}
		if n.l != nil {
			wb(n.l)
		}
		if n.r != nil {
			wb(n.r)
		}
		if n.t1 != nil {
			wi(n.t1)
		}
		if n.t2 != nil {
			wi(n.t2)
		}
	}
	wb(f)
	s := &Subst{Int: ints, Bool: bools}
	return s.ApplyBool(f, dst)
}

func FuzzFingerprint(f *testing.F) {
	f.Add("(=> (= x y) (= (f x) (f y)))")
	f.Add("(and (= x y) (= y z))")
	f.Add("(or (p a b) (not (< a (succ b))))")
	f.Add("(= (ite (< x y) x y) (pred z))")
	f.Add("(and (and p q) (or (= x y) (= u v)))")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		b := NewBuilder()
		formula, err := Parse(src, b)
		if err != nil {
			return
		}
		fp := Fingerprint(formula)
		if len(fp) != 64 || strings.ToLower(fp) != fp {
			t.Fatalf("malformed fingerprint %q", fp)
		}
		// Clone invariance.
		if got := Fingerprint(Clone(formula, NewBuilder())); got != fp {
			t.Errorf("clone fingerprint mismatch for %q", src)
		}
		// Maximal commutative permutation invariance.
		if got := Fingerprint(mirror(formula, NewBuilder())); got != fp {
			t.Errorf("mirror fingerprint mismatch for %q", src)
		}
		// Leaf alpha-renaming invariance.
		if got := Fingerprint(renameLeaves(formula, NewBuilder())); got != fp {
			t.Errorf("rename fingerprint mismatch for %q", src)
		}
		// Determinism.
		if got := Fingerprint(formula); got != fp {
			t.Errorf("unstable fingerprint for %q", src)
		}
	})
}
