// Package smtlib reads SMT-LIB v2 scripts in the QF_IDL and QF_UFIDL
// fragments (integer difference logic, optionally with uninterpreted
// functions) and translates them into SUF formulas, so the decision
// procedures can run on standard benchmark scripts.
//
// Supported commands: set-logic, set-info, set-option (ignored),
// declare-fun, declare-const, assert, check-sat, exit. Supported term
// language: Bool connectives (and, or, not, =>, xor, ite), equality and
// distinct at both sorts, the orders <, <=, >, >=, let bindings,
// uninterpreted applications over Int, and difference-logic arithmetic:
// integer literals, x + k, x − k, unary minus, and x − y compared against a
// constant. Free-standing integer literals are translated as offsets from a
// designated zero constant ($zero), which is sound for (un)satisfiability
// because difference logic is shift-invariant.
//
// SMT-LIB's check-sat asks for satisfiability; SUF's Decide checks validity.
// Script.Formula returns the conjunction of the assertions F, and
// sat(F) ⟺ ¬ valid(¬F).
package smtlib

import (
	"fmt"
	"strconv"
	"strings"

	"sufsat/internal/suf"
)

// Zero is the designated base constant standing for the integer 0.
const Zero = "$zero"

// checkOffset rejects integer literals beyond suf.MaxNumeral, so that folding
// literals into one offset cannot overflow; translator.offset bounds what
// the folded offsets build.
func checkOffset(k int) error {
	if k > suf.MaxNumeral || k < -suf.MaxNumeral {
		return fmt.Errorf("smtlib: offset magnitude %d exceeds the supported cap %d", k, suf.MaxNumeral)
	}
	return nil
}

// Script is a parsed SMT-LIB script.
type Script struct {
	// Logic is the set-logic argument ("" if absent).
	Logic string
	// Assertions holds the asserted formulas in order.
	Assertions []*suf.BoolExpr
	// CheckSat reports whether the script contains a (check-sat) command.
	CheckSat bool
	// IntFuns and BoolFuns record the declared symbols and their arities.
	IntFuns  map[string]int
	BoolFuns map[string]int

	b *suf.Builder
}

// Formula returns the conjunction of the script's assertions.
func (s *Script) Formula() *suf.BoolExpr {
	out := s.b.True()
	for _, a := range s.Assertions {
		out = s.b.And(out, a)
	}
	return out
}

// ParseScript parses an SMT-LIB v2 script into b.
func ParseScript(src string, b *suf.Builder) (*Script, error) {
	toks, err := tokenizeSMT(src)
	if err != nil {
		return nil, err
	}
	p := &sparser{toks: toks}
	script := &Script{
		IntFuns:  make(map[string]int),
		BoolFuns: make(map[string]int),
		b:        b,
	}
	tr := &translator{b: b, script: script}
	for p.pos < len(p.toks) {
		form, err := p.sexp()
		if err != nil {
			return nil, err
		}
		if err := tr.command(form); err != nil {
			return nil, err
		}
	}
	return script, nil
}

// ---------- tokenizer ----------

func tokenizeSMT(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '|':
			j := i + 1
			for j < len(src) && src[j] != '|' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("smtlib: unterminated |symbol|")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("smtlib: unterminated string literal")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		default:
			j := i
			for j < len(src) {
				d := src[j]
				if d == '(' || d == ')' || d == ';' || d == '|' || d == '"' ||
					d == ' ' || d == '\t' || d == '\n' || d == '\r' {
					break
				}
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

// ---------- s-expression layer ----------

type snode struct {
	atom   string
	list   []snode
	isList bool
}

type sparser struct {
	toks []string
	pos  int
}

func (p *sparser) sexp() (snode, error) {
	if p.pos >= len(p.toks) {
		return snode{}, fmt.Errorf("smtlib: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	switch t {
	case "(":
		var list []snode
		for {
			if p.pos >= len(p.toks) {
				return snode{}, fmt.Errorf("smtlib: missing ')'")
			}
			if p.toks[p.pos] == ")" {
				p.pos++
				return snode{list: list, isList: true}, nil
			}
			child, err := p.sexp()
			if err != nil {
				return snode{}, err
			}
			list = append(list, child)
		}
	case ")":
		return snode{}, fmt.Errorf("smtlib: unexpected ')'")
	default:
		return snode{atom: t}, nil
	}
}

// ---------- translation ----------

// value is a sorted term: exactly one of i / f is set.
type value struct {
	i *suf.IntExpr
	f *suf.BoolExpr
}

func (v value) isInt() bool  { return v.i != nil }
func (v value) isBool() bool { return v.f != nil }

type translator struct {
	b       *suf.Builder
	script  *Script
	lets    []map[string]value // let-binding scopes
	offsets int                // sum of |k| over the offsets built so far
	pairs   int                // disequalities distinct has built so far
}

// MaxDistinctPairs caps the disequalities that the distinct applications of
// one script expand into. distinct over n arguments builds n(n−1)/2 of
// them, so without the cap a few kilobytes of arguments could ask for
// millions of nodes before any admission control sees the formula. The cap
// admits one distinct over 181 arguments, a few nodes per pair, on the
// order of the nodes suf.MaxNumeral admits. A distinct that would pass the
// cap is rejected before it builds anything.
const MaxDistinctPairs = 1 << 14

// offset builds x + k. Offsets become succ/pred chains, one node per unit, so
// suf.MaxNumeral caps the sum of |k| over all the offsets one script's
// translation builds, as it caps the numerals of one SUF formula; otherwise a
// few bytes of input per offset could allocate gigabytes. The charge falls
// where offsets are built, not where literals are read: a chain or distinct
// builds an argument's offset once per pair it compares.
func (t *translator) offset(x *suf.IntExpr, k int) (*suf.IntExpr, error) {
	if left := suf.MaxNumeral - t.offsets; k > left || k < -left {
		return nil, fmt.Errorf("smtlib: offsets sum to more than the supported total magnitude %d", suf.MaxNumeral)
	}
	t.offsets += max(k, -k)
	return t.b.Offset(x, k), nil
}

func (t *translator) command(n snode) error {
	if !n.isList || len(n.list) == 0 || n.list[0].isList {
		return fmt.Errorf("smtlib: malformed command %v", render(n))
	}
	head := n.list[0].atom
	args := n.list[1:]
	switch head {
	case "set-logic":
		if len(args) == 1 {
			t.script.Logic = args[0].atom
		}
		return nil
	case "set-info", "set-option", "get-info", "push", "pop", "exit", "get-model":
		return nil
	case "check-sat":
		t.script.CheckSat = true
		return nil
	case "declare-const":
		if len(args) != 2 {
			return fmt.Errorf("smtlib: declare-const takes 2 arguments")
		}
		return t.declare(args[0].atom, nil, args[1])
	case "declare-fun":
		if len(args) != 3 || !args[1].isList {
			return fmt.Errorf("smtlib: declare-fun takes (name (sorts) sort)")
		}
		return t.declare(args[0].atom, args[1].list, args[2])
	case "assert":
		if len(args) != 1 {
			return fmt.Errorf("smtlib: assert takes 1 argument")
		}
		v, err := t.term(args[0])
		if err != nil {
			return err
		}
		if !v.isBool() {
			return fmt.Errorf("smtlib: assert of a non-Bool term")
		}
		t.script.Assertions = append(t.script.Assertions, v.f)
		return nil
	default:
		return fmt.Errorf("smtlib: unsupported command %q", head)
	}
}

func (t *translator) declare(rawName string, argSorts []snode, retSort snode) error {
	name := unquote(rawName)
	if err := checkName(name); err != nil {
		return err
	}
	for _, s := range argSorts {
		if s.atom != "Int" {
			return fmt.Errorf("smtlib: only Int argument sorts are supported, got %v", render(s))
		}
	}
	switch retSort.atom {
	case "Int":
		t.script.IntFuns[name] = len(argSorts)
	case "Bool":
		t.script.BoolFuns[name] = len(argSorts)
	default:
		return fmt.Errorf("smtlib: unsupported sort %v", render(retSort))
	}
	return nil
}

// lookupLet finds a let binding for name, innermost first.
func (t *translator) lookupLet(name string) (value, bool) {
	for i := len(t.lets) - 1; i >= 0; i-- {
		if v, ok := t.lets[i][name]; ok {
			return v, true
		}
	}
	return value{}, false
}

// term translates an SMT-LIB term.
func (t *translator) term(n snode) (value, error) {
	b := t.b
	if !n.isList {
		a := unquote(n.atom)
		if v, ok := t.lookupLet(a); ok {
			return v, nil
		}
		switch a {
		case "true":
			return value{f: b.True()}, nil
		case "false":
			return value{f: b.False()}, nil
		}
		if k, err := strconv.Atoi(a); err == nil {
			i, err := t.offset(b.Sym(Zero), k)
			return value{i: i}, err
		}
		if _, ok := t.script.BoolFuns[a]; ok {
			return value{f: b.BoolSym(a)}, nil
		}
		if _, ok := t.script.IntFuns[a]; ok {
			return value{i: b.Sym(a)}, nil
		}
		return value{}, fmt.Errorf("smtlib: undeclared symbol %q", a)
	}
	if len(n.list) == 0 {
		return value{}, fmt.Errorf("smtlib: empty application")
	}
	if n.list[0].isList {
		return value{}, fmt.Errorf("smtlib: higher-order application not supported")
	}
	head := unquote(n.list[0].atom)
	args := n.list[1:]

	switch head {
	case "let":
		return t.letTerm(args)
	case "not":
		v, err := t.boolArg(args, 1, 1)
		if err != nil {
			return value{}, err
		}
		return value{f: b.Not(v[0])}, nil
	case "and", "or":
		vs, err := t.boolArg(args, 0, -1)
		if err != nil {
			return value{}, err
		}
		out := b.True()
		if head == "or" {
			out = b.False()
		}
		for _, v := range vs {
			if head == "and" {
				out = b.And(out, v)
			} else {
				out = b.Or(out, v)
			}
		}
		return value{f: out}, nil
	case "=>":
		vs, err := t.boolArg(args, 2, 2)
		if err != nil {
			return value{}, err
		}
		return value{f: b.Implies(vs[0], vs[1])}, nil
	case "xor":
		vs, err := t.boolArg(args, 2, 2)
		if err != nil {
			return value{}, err
		}
		return value{f: b.Not(b.Iff(vs[0], vs[1]))}, nil
	case "ite":
		if len(args) != 3 {
			return value{}, fmt.Errorf("smtlib: ite takes 3 arguments")
		}
		c, err := t.term(args[0])
		if err != nil {
			return value{}, err
		}
		if !c.isBool() {
			return value{}, fmt.Errorf("smtlib: ite condition must be Bool")
		}
		x, err := t.term(args[1])
		if err != nil {
			return value{}, err
		}
		y, err := t.term(args[2])
		if err != nil {
			return value{}, err
		}
		switch {
		case x.isInt() && y.isInt():
			return value{i: b.Ite(c.f, x.i, y.i)}, nil
		case x.isBool() && y.isBool():
			return value{f: b.Or(b.And(c.f, x.f), b.And(b.Not(c.f), y.f))}, nil
		}
		return value{}, fmt.Errorf("smtlib: ite branches have different sorts")
	case "=", "distinct":
		return t.eqChain(head, args)
	case "<", "<=", ">", ">=":
		return t.orderChain(head, args)
	// (the comparison translators accept full difference forms like
	// (<= (- x y) k) by moving terms across the relation)
	case "+", "-":
		i, err := t.arith(n)
		if err != nil {
			return value{}, err
		}
		return value{i: i}, nil
	default:
		// Uninterpreted application.
		if arity, ok := t.script.IntFuns[head]; ok {
			ts, err := t.intArgs(args, arity)
			if err != nil {
				return value{}, err
			}
			return value{i: b.Fn(head, ts...)}, nil
		}
		if arity, ok := t.script.BoolFuns[head]; ok {
			ts, err := t.intArgs(args, arity)
			if err != nil {
				return value{}, err
			}
			return value{f: b.PredApp(head, ts...)}, nil
		}
		return value{}, fmt.Errorf("smtlib: undeclared symbol %q", head)
	}
}

func (t *translator) letTerm(args []snode) (value, error) {
	if len(args) != 2 || !args[0].isList {
		return value{}, fmt.Errorf("smtlib: let takes ((bindings)) body")
	}
	scope := make(map[string]value)
	for _, bind := range args[0].list {
		if !bind.isList || len(bind.list) != 2 || bind.list[0].isList {
			return value{}, fmt.Errorf("smtlib: malformed let binding %v", render(bind))
		}
		v, err := t.term(bind.list[1]) // bindings see the outer scope only
		if err != nil {
			return value{}, err
		}
		scope[unquote(bind.list[0].atom)] = v
	}
	t.lets = append(t.lets, scope)
	defer func() { t.lets = t.lets[:len(t.lets)-1] }()
	return t.term(args[1])
}

// eqChain handles chained = and pairwise distinct at either sort.
func (t *translator) eqChain(head string, args []snode) (value, error) {
	b := t.b
	if len(args) < 2 {
		return value{}, fmt.Errorf("smtlib: %s takes at least 2 arguments", head)
	}
	if head == "distinct" {
		pairs := len(args) * (len(args) - 1) / 2
		if pairs > MaxDistinctPairs-t.pairs {
			return value{}, fmt.Errorf("smtlib: distinct pairs sum to more than the supported total %d", MaxDistinctPairs)
		}
		t.pairs += pairs
	}
	// Integer chains go through the difference-form path so (- x y) works.
	if fs, err := t.diffForms(args); err == nil {
		out := b.True()
		if head == "=" {
			for i := 0; i+1 < len(args); i++ {
				c, err := t.comparePair("=", args[i], args[i+1], fs[i], fs[i+1])
				if err != nil {
					return value{}, err
				}
				out = b.And(out, c)
			}
		} else {
			for i := 0; i < len(args); i++ {
				for j := i + 1; j < len(args); j++ {
					c, err := t.comparePair("=", args[i], args[j], fs[i], fs[j])
					if err != nil {
						return value{}, err
					}
					out = b.And(out, b.Not(c))
				}
			}
		}
		return value{f: out}, nil
	}
	vs := make([]value, len(args))
	for i, a := range args {
		v, err := t.term(a)
		if err != nil {
			return value{}, err
		}
		vs[i] = v
	}
	pair := func(x, y value) (*suf.BoolExpr, error) {
		switch {
		case x.isInt() && y.isInt():
			return b.Eq(x.i, y.i), nil
		case x.isBool() && y.isBool():
			return b.Iff(x.f, y.f), nil
		}
		return nil, fmt.Errorf("smtlib: %s across different sorts", head)
	}
	out := b.True()
	if head == "=" {
		for i := 0; i+1 < len(vs); i++ {
			eq, err := pair(vs[i], vs[i+1])
			if err != nil {
				return value{}, err
			}
			out = b.And(out, eq)
		}
	} else {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				eq, err := pair(vs[i], vs[j])
				if err != nil {
					return value{}, err
				}
				out = b.And(out, b.Not(eq))
			}
		}
	}
	return value{f: out}, nil
}

// diffForms returns the difference form of every argument.
func (t *translator) diffForms(args []snode) ([]diffForm, error) {
	fs := make([]diffForm, len(args))
	for i, a := range args {
		f, err := t.diffForm(a)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

// orderChain handles chained comparisons over Int, in full difference form.
func (t *translator) orderChain(head string, args []snode) (value, error) {
	b := t.b
	if len(args) < 2 {
		return value{}, fmt.Errorf("smtlib: %s takes at least 2 arguments", head)
	}
	fs, err := t.diffForms(args)
	if err != nil {
		return value{}, err
	}
	out := b.True()
	for i := 0; i+1 < len(args); i++ {
		c, err := t.comparePair(head, args[i], args[i+1], fs[i], fs[i+1])
		if err != nil {
			return value{}, err
		}
		out = b.And(out, c)
	}
	return value{f: out}, nil
}

// diffForm parses an integer term into the difference-logic normal form
// pos − neg + off, where pos and neg are optional base terms.
type diffForm struct {
	pos, neg *suf.IntExpr
	off      int
}

func (t *translator) diffForm(n snode) (diffForm, error) {
	if k, ok := literal(n); ok {
		if err := checkOffset(k); err != nil {
			return diffForm{}, err
		}
		return diffForm{off: k}, nil
	}
	if n.isList && len(n.list) > 0 && !n.list[0].isList {
		head := unquote(n.list[0].atom)
		args := n.list[1:]
		if head == "+" || head == "-" {
			out := diffForm{}
			for idx, a := range args {
				f, err := t.diffForm(a)
				if err != nil {
					return diffForm{}, err
				}
				if head == "-" && (idx > 0 || len(args) == 1) {
					f.pos, f.neg = f.neg, f.pos
					f.off = -f.off
				}
				out.off += f.off
				for _, base := range []*suf.IntExpr{f.pos} {
					if base == nil {
						continue
					}
					if out.pos != nil {
						return diffForm{}, fmt.Errorf("smtlib: %v has two positive terms — outside difference logic", render(n))
					}
					out.pos = base
				}
				for _, base := range []*suf.IntExpr{f.neg} {
					if base == nil {
						continue
					}
					if out.neg != nil {
						return diffForm{}, fmt.Errorf("smtlib: %v has two negative terms — outside difference logic", render(n))
					}
					out.neg = base
				}
			}
			return out, nil
		}
	}
	v, err := t.term(n)
	if err != nil {
		return diffForm{}, err
	}
	if !v.isInt() {
		return diffForm{}, fmt.Errorf("smtlib: expected an Int term at %v", render(n))
	}
	return diffForm{pos: v.i}, nil
}

// comparePair builds L ⋈ R from their difference forms lf and rf by moving
// negated bases across the relation:
// (lp − ln + lo) ⋈ (rp − rn + ro) ⟺ X + lo ⋈ Y + ro with X ∈ {lp, rn},
// Y ∈ {rp, ln} (difference logic admits at most one base on each side).
func (t *translator) comparePair(op string, l, r snode, lf, rf diffForm) (*suf.BoolExpr, error) {
	b := t.b
	pick := func(a, c *suf.IntExpr, what string) (*suf.IntExpr, error) {
		switch {
		case a != nil && c != nil:
			return nil, fmt.Errorf("smtlib: comparison of %v and %v is outside difference logic (%s side has two terms)", render(l), render(r), what)
		case a != nil:
			return a, nil
		case c != nil:
			return c, nil
		}
		return b.Sym(Zero), nil
	}
	x, err := pick(lf.pos, rf.neg, "left")
	if err != nil {
		return nil, err
	}
	y, err := pick(rf.pos, lf.neg, "right")
	if err != nil {
		return nil, err
	}
	lt, err := t.offset(x, lf.off)
	if err != nil {
		return nil, err
	}
	rt, err := t.offset(y, rf.off)
	if err != nil {
		return nil, err
	}
	switch op {
	case "<":
		return b.Lt(lt, rt), nil
	case "<=":
		return b.Le(lt, rt), nil
	case ">":
		return b.Gt(lt, rt), nil
	case ">=":
		return b.Ge(lt, rt), nil
	case "=":
		return b.Eq(lt, rt), nil
	}
	return nil, fmt.Errorf("smtlib: unknown comparison %q", op)
}

// arith translates an integer term, accepting the difference-logic fragment:
// literals, declared constants/applications, ite, x + k, x − k, unary minus
// of a literal, and x − y rewritten as x compared against y via an offset of
// the other side — which only works inside comparisons, so bare x − y is
// translated as an error unless one side reduces to a literal.
func (t *translator) arith(n snode) (*suf.IntExpr, error) {
	b := t.b
	if !n.isList {
		v, err := t.term(n)
		if err != nil {
			return nil, err
		}
		if !v.isInt() {
			return nil, fmt.Errorf("smtlib: expected an Int term at %v", render(n))
		}
		return v.i, nil
	}
	if len(n.list) == 0 || n.list[0].isList {
		v, err := t.term(n)
		if err != nil {
			return nil, err
		}
		if !v.isInt() {
			return nil, fmt.Errorf("smtlib: expected an Int term at %v", render(n))
		}
		return v.i, nil
	}
	head := unquote(n.list[0].atom)
	args := n.list[1:]
	switch head {
	case "+", "-":
		// Fold the operands into at most one non-literal term plus an offset.
		sign := 1
		var base *suf.IntExpr
		off := 0
		for idx, a := range args {
			s := sign
			if head == "-" && idx > 0 {
				s = -1
			}
			if k, ok := literal(a); ok {
				if err := checkOffset(k); err != nil {
					return nil, err
				}
				off += s * k
				continue
			}
			x, err := t.arith(a)
			if err != nil {
				return nil, err
			}
			if s < 0 {
				// x − y: express as base plus the negation of y is outside
				// difference logic unless y is the only non-literal and we
				// can flip the whole term; reject here — comparisons handle
				// (op (- x y) k) by moving y across (done by the caller via
				// offset folding on both sides).
				return nil, fmt.Errorf("smtlib: non-constant subtrahend in %v is outside difference logic", render(n))
			}
			if base != nil {
				return nil, fmt.Errorf("smtlib: sum of two non-constant terms in %v is outside difference logic", render(n))
			}
			base = x
		}
		if head == "-" && len(args) == 1 {
			// unary minus: only of a literal
			if base == nil {
				return t.offset(b.Sym(Zero), -off)
			}
			return nil, fmt.Errorf("smtlib: unary minus of a non-literal in %v", render(n))
		}
		if base == nil {
			base = b.Sym(Zero)
		}
		return t.offset(base, off)
	default:
		v, err := t.term(n)
		if err != nil {
			return nil, err
		}
		if !v.isInt() {
			return nil, fmt.Errorf("smtlib: expected an Int term at %v", render(n))
		}
		return v.i, nil
	}
}

// literal recognizes integer literals including (- k).
func literal(n snode) (int, bool) {
	if !n.isList {
		if k, err := strconv.Atoi(n.atom); err == nil {
			return k, true
		}
		return 0, false
	}
	if len(n.list) == 2 && !n.list[0].isList && n.list[0].atom == "-" {
		if k, ok := literal(n.list[1]); ok {
			return -k, true
		}
	}
	return 0, false
}

func (t *translator) boolArg(args []snode, min, max int) ([]*suf.BoolExpr, error) {
	if min > 0 && len(args) < min {
		return nil, fmt.Errorf("smtlib: expected at least %d arguments", min)
	}
	if max > 0 && len(args) > max {
		return nil, fmt.Errorf("smtlib: expected at most %d arguments", max)
	}
	out := make([]*suf.BoolExpr, len(args))
	for i, a := range args {
		v, err := t.term(a)
		if err != nil {
			return nil, err
		}
		if !v.isBool() {
			return nil, fmt.Errorf("smtlib: expected a Bool term at %v", render(a))
		}
		out[i] = v.f
	}
	return out, nil
}

func (t *translator) intArgs(args []snode, arity int) ([]*suf.IntExpr, error) {
	if len(args) != arity {
		return nil, fmt.Errorf("smtlib: expected %d arguments, got %d", arity, len(args))
	}
	out := make([]*suf.IntExpr, len(args))
	for i, a := range args {
		x, err := t.arith(a)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// checkName rejects declared names the SUF printer cannot render back to
// parseable syntax even with |quoting|: empty names and names containing a
// bar (SMT-LIB forbids the latter inside quoted symbols too).
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("smtlib: empty symbol name")
	}
	if strings.ContainsRune(name, '|') {
		return fmt.Errorf("smtlib: symbol name %q contains '|'", name)
	}
	return nil
}

func unquote(s string) string {
	if len(s) >= 2 && strings.HasPrefix(s, "|") && strings.HasSuffix(s, "|") {
		return s[1 : len(s)-1]
	}
	return s
}

func render(n snode) string {
	if !n.isList {
		return n.atom
	}
	parts := make([]string, len(n.list))
	for i, c := range n.list {
		parts[i] = render(c)
	}
	return "(" + strings.Join(parts, " ") + ")"
}
