package suf_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sufsat/internal/bench"
	"sufsat/internal/suf"
)

// The front end (Parse and Fingerprint) checked against its reference
// implementations over the bench suite, with its allocations pinned.

// suiteText holds the printed form of every bench suite formula, built once.
var suiteText = sync.OnceValue(func() []string {
	var out []string
	for _, bm := range bench.Suite() {
		f, _ := bm.Build()
		out = append(out, f.String())
	}
	return out
})

// smallInputs are the seeds of FuzzParse, its testdata corpus and the
// inputs of TestParseErrors.
func smallInputs(t testing.TB) []string {
	out := []string{
		// FuzzParse seeds.
		"(and (= (f x) (f y)) (< x (+ y 3)))",
		"(=> (p x) (or q (= x y)))",
		"(iff b1 (not b2))",
		"(= (ite (< x y) x y) (g x y))",
		"(>= (succ x) (pred y))",
		"true",
		"(not false)",
		"((((",
		"))))",
		"(= x 5)",
		"(+ x y)",
		"; only a comment",
		"(and)",
		"(or)",
		"(an\x00d x y)",
		"(≠ x y)",
		// TestParseErrors inputs.
		"",
		"(and (= x y)",
		"(= x)",
		"(not a b)",
		"(succ)",
		"(ite (< x y) x)",
		"(and (= x y)) extra",
		"(< (and a b) x)",
		"()",
		"((f) x)",
		"(= (ite a x y) true)",
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files hold "go test fuzz v1" and one string(...) line.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		src, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, src)
	}
	return out
}

// respell renames every symbolic constant and Boolean symbol of f to a name
// that prints |quoted|: a numeral, or a name containing a space.
func respell(f *suf.BoolExpr) string {
	b := suf.NewBuilder()
	s := &suf.Subst{Int: map[string]*suf.IntExpr{}, Bool: map[string]*suf.BoolExpr{}}
	for name, apps := range suf.FuncApps(f, 0) {
		if len(apps[0].Args()) == 0 {
			s.Int[name] = b.Sym(strconv.Itoa(len(s.Int)))
		}
	}
	for name, apps := range suf.PredApps(f, 0) {
		if len(apps[0].Args()) == 0 {
			s.Bool[name] = b.BoolSym("b " + name)
		}
	}
	return s.ApplyBool(f, b).String()
}

// tagged salts text the way the service benchmark does: text ∨ a chain of
// offset inequalities over fresh symbols.
func tagged(text string, salt int) string {
	var sb strings.Builder
	sb.WriteString("(or ")
	sb.WriteString(text)
	sb.WriteString(" (and")
	for i := 0; i < 5; i++ {
		op := "+"
		if i%2 == 1 {
			op = "-"
		}
		fmt.Fprintf(&sb, " (< tag_%d (%s tag_%d %d))", i, op, i+1, salt%8+1)
		salt /= 8
	}
	sb.WriteString("))")
	return sb.String()
}

// checkSameParse fails t unless Parse and the reference parser both reject
// src, or both accept it and build the same DAG into fresh builders: the
// same node count and, node for node, the same kinds, IDs and names.
func checkSameParse(t *testing.T, src string) {
	t.Helper()
	rb, nb := suf.NewBuilder(), suf.NewBuilder()
	rf, rerr := refParse(src, rb)
	nf, nerr := suf.Parse(src, nb)
	if (rerr == nil) != (nerr == nil) {
		t.Fatalf("%.80q: reference error %v, Parse error %v", src, rerr, nerr)
	}
	if rerr != nil {
		return
	}
	if rb.NumNodes() != nb.NumNodes() {
		t.Fatalf("%.80q: reference builds %d nodes, Parse %d", src, rb.NumNodes(), nb.NumNodes())
	}
	if err := sameDAG(rf, nf); err != nil {
		t.Fatalf("%.80q: %v", src, err)
	}
}

// sameDAG compares two DAGs node for node.
func sameDAG(x, y *suf.BoolExpr) error {
	seen := make(map[int32]bool)
	var bools func(x, y *suf.BoolExpr) error
	var ints func(x, y *suf.IntExpr) error
	ints = func(x, y *suf.IntExpr) error {
		if x == nil || y == nil {
			if x != y {
				return fmt.Errorf("child present on one side only")
			}
			return nil
		}
		if x.ID() != y.ID() || x.Kind() != y.Kind() || x.FuncName() != y.FuncName() || len(x.Args()) != len(y.Args()) {
			return fmt.Errorf("integer node %d %v differs from %d %v", x.ID(), x, y.ID(), y)
		}
		if seen[x.ID()] {
			return nil
		}
		seen[x.ID()] = true
		for i, a := range x.Args() {
			if err := ints(a, y.Args()[i]); err != nil {
				return err
			}
		}
		xa, xb := x.Branches()
		ya, yb := y.Branches()
		if err := bools(x.Cond(), y.Cond()); err != nil {
			return err
		}
		if err := ints(xa, ya); err != nil {
			return err
		}
		return ints(xb, yb)
	}
	bools = func(x, y *suf.BoolExpr) error {
		if x == nil || y == nil {
			if x != y {
				return fmt.Errorf("child present on one side only")
			}
			return nil
		}
		if x.ID() != y.ID() || x.Kind() != y.Kind() || x.PredName() != y.PredName() || len(x.Args()) != len(y.Args()) {
			return fmt.Errorf("Boolean node %d %v differs from %d %v", x.ID(), x, y.ID(), y)
		}
		if seen[x.ID()] {
			return nil
		}
		seen[x.ID()] = true
		for i, a := range x.Args() {
			if err := ints(a, y.Args()[i]); err != nil {
				return err
			}
		}
		xl, xr := x.BoolChildren()
		yl, yr := y.BoolChildren()
		xt1, xt2 := x.Terms()
		yt1, yt2 := y.Terms()
		for _, err := range []error{bools(xl, yl), bools(xr, yr), ints(xt1, yt1), ints(xt2, yt2)} {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return bools(x, y)
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range smallInputs(t) {
		checkSameParse(t, src)
	}
	for i, text := range suiteText() {
		checkSameParse(t, text)
		checkSameParse(t, respell(suf.MustParse(text, suf.NewBuilder())))
		checkSameParse(t, tagged(text, 37*i))
	}
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range smallInputs(f) {
		f.Add(src)
	}
	f.Add(tagged("(= (f x) (f |y z|))", 5))
	f.Fuzz(checkSameParse)
}

// TestFingerprintMatchesReference checks that the 128-bit structural
// digests group formulas as the SHA-256 ones did: over the suite, each
// formula and three renamed and mirrored copies of it.
func TestFingerprintMatchesReference(t *testing.T) {
	var fs []*suf.BoolExpr
	for _, text := range suiteText() {
		f := suf.MustParse(text, suf.NewBuilder())
		renamed := suf.MustParse(respell(f), suf.NewBuilder())
		fs = append(fs, f, renamed,
			suf.Mirror(f, suf.NewBuilder()), suf.Mirror(renamed, suf.NewBuilder()))
	}
	refGroup := map[string]string{} // reference fingerprint -> fingerprint
	group := map[string]string{}    // fingerprint -> reference fingerprint
	for i, f := range fs {
		ref, fp := refFingerprint(f), suf.Fingerprint(f)
		if g, ok := refGroup[ref]; ok && g != fp {
			t.Errorf("formula %d: the reference groups it with a formula Fingerprint separates", i)
		}
		if g, ok := group[fp]; ok && g != ref {
			t.Errorf("formula %d: Fingerprint groups it with a formula the reference separates", i)
		}
		refGroup[ref], group[fp] = fp, ref
	}
	if len(group) != len(suiteText()) {
		t.Errorf("%d groups for %d suite formulas", len(group), len(suiteText()))
	}
}

// TestFrontEndAllocs pins the front end's allocations per DAG node: Parse
// allocates a node, its argument list and amortized hash-consing table
// growth; Fingerprint a fixed set of dense tables.
func TestFrontEndAllocs(t *testing.T) {
	for i, text := range suiteText() {
		b := suf.NewBuilder()
		f := suf.MustParse(text, b)
		nodes := float64(b.NumNodes())
		parse := testing.AllocsPerRun(2, func() {
			if _, err := suf.Parse(text, suf.NewBuilder()); err != nil {
				t.Fatal(err)
			}
		})
		fp := testing.AllocsPerRun(2, func() { suf.Fingerprint(f) })
		if parse > 3*nodes || fp > nodes {
			t.Errorf("suite formula %d (%.0f nodes): %.2f allocations per node to parse (limit 3), %.2f to fingerprint (limit 1)",
				i, nodes, parse/nodes, fp/nodes)
		}
	}
}

var sink any

func BenchmarkParse(b *testing.B) {
	texts := suiteText()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			f, err := suf.Parse(text, suf.NewBuilder())
			if err != nil {
				b.Fatal(err)
			}
			sink = f
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	var fs []*suf.BoolExpr
	for _, text := range suiteText() {
		fs = append(fs, suf.MustParse(text, suf.NewBuilder()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			sink = suf.Fingerprint(f)
		}
	}
}
