// Package suf implements the logic of Separation predicates and
// Uninterpreted Functions (SUF) from the paper: Boolean expressions built
// from equalities, inequalities and applications of uninterpreted predicates
// over integer expressions built from uninterpreted functions, succ ("+1"),
// pred ("−1") and ITE.
//
// Expressions are immutable, hash-consed DAG nodes created through a Builder:
// structurally identical expressions from the same Builder are pointer-equal,
// and DAG node counts (the paper's formula-size measure) are well defined.
package suf

import (
	"strconv"
	"strings"
)

// IntKind enumerates integer expression kinds.
type IntKind uint8

// Integer expression kinds.
const (
	IFunc IntKind = iota // function application; zero arity = symbolic constant
	ISucc                // +1
	IPred                // −1
	IIte                 // if-then-else
)

// BoolKind enumerates Boolean expression kinds.
type BoolKind uint8

// Boolean expression kinds.
const (
	BTrue BoolKind = iota
	BFalse
	BNot
	BAnd
	BOr
	BEq   // int = int
	BLt   // int < int
	BPred // predicate application; zero arity = symbolic Boolean constant
)

// IntExpr is an integer-valued SUF expression.
type IntExpr struct {
	kind IntKind
	id   int32
	fn   string     // IFunc
	args []*IntExpr // IFunc
	cond *BoolExpr  // IIte
	a, b *IntExpr   // ISucc/IPred use a; IIte uses a (then) and b (else)
}

// Kind returns the node kind.
func (e *IntExpr) Kind() IntKind { return e.kind }

// ID returns a builder-unique identifier.
func (e *IntExpr) ID() int32 { return e.id }

// FuncName returns the applied function symbol (IFunc only).
func (e *IntExpr) FuncName() string { return e.fn }

// Args returns the argument list (IFunc only). Callers must not modify it.
func (e *IntExpr) Args() []*IntExpr { return e.args }

// Cond returns the ITE condition (IIte only).
func (e *IntExpr) Cond() *BoolExpr { return e.cond }

// Branches returns the then/else branches (IIte) or the single operand in a
// (ISucc/IPred).
func (e *IntExpr) Branches() (a, b *IntExpr) { return e.a, e.b }

// BoolExpr is a Boolean-valued SUF expression.
type BoolExpr struct {
	kind   BoolKind
	id     int32
	pn     string     // BPred
	args   []*IntExpr // BPred
	l, r   *BoolExpr  // BNot uses l; BAnd/BOr use l and r
	t1, t2 *IntExpr   // BEq/BLt
}

// Kind returns the node kind.
func (e *BoolExpr) Kind() BoolKind { return e.kind }

// ID returns a builder-unique identifier.
func (e *BoolExpr) ID() int32 { return e.id }

// PredName returns the applied predicate symbol (BPred only).
func (e *BoolExpr) PredName() string { return e.pn }

// Args returns the argument list (BPred only). Callers must not modify it.
func (e *BoolExpr) Args() []*IntExpr { return e.args }

// BoolChildren returns the Boolean operands (BNot uses only l).
func (e *BoolExpr) BoolChildren() (l, r *BoolExpr) { return e.l, e.r }

// Terms returns the compared integer operands (BEq/BLt only).
func (e *BoolExpr) Terms() (t1, t2 *IntExpr) { return e.t1, e.t2 }

// Builder hash-conses SUF expressions.
type Builder struct {
	t, f   *BoolExpr
	ints   map[consKey]*IntExpr
	bools  map[consKey]*BoolExpr
	nextID int32
}

// consKey identifies a node for hash-consing without building a string: the
// constructor's tag, the IDs of up to three operands, and for an application
// its arity and symbol name. An application of more than three arguments
// spells the name and every argument ID into name instead (see wideKey), so
// keys stay collision-free at any arity.
type consKey struct {
	tag   byte
	arity int32
	kids  [3]int32
	name  string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{
		ints:  make(map[consKey]*IntExpr),
		bools: make(map[consKey]*BoolExpr),
	}
	b.t = b.consBool(consKey{tag: 'T'}, func() *BoolExpr { return &BoolExpr{kind: BTrue} })
	b.f = b.consBool(consKey{tag: 'F'}, func() *BoolExpr { return &BoolExpr{kind: BFalse} })
	return b
}

// consInt returns the node keyed k, calling mk to allocate it (and handing
// out the next ID) only when the builder has none yet.
func (b *Builder) consInt(k consKey, mk func() *IntExpr) *IntExpr {
	if n, ok := b.ints[k]; ok {
		return n
	}
	e := mk()
	e.id = b.nextID
	b.nextID++
	b.ints[k] = e
	return e
}

// consBool is consInt for Boolean nodes.
func (b *Builder) consBool(k consKey, mk func() *BoolExpr) *BoolExpr {
	if n, ok := b.bools[k]; ok {
		return n
	}
	e := mk()
	e.id = b.nextID
	b.nextID++
	b.bools[k] = e
	return e
}

// NumNodes returns the number of distinct nodes created so far.
func (b *Builder) NumNodes() int { return int(b.nextID) }

// Sym returns the symbolic constant (zero-arity function) named name.
func (b *Builder) Sym(name string) *IntExpr { return b.Fn(name) }

// Fn returns the application of function symbol name to args.
func (b *Builder) Fn(name string, args ...*IntExpr) *IntExpr {
	return b.consInt(appKey('f', name, args), func() *IntExpr {
		return &IntExpr{kind: IFunc, fn: name, args: cloneArgs(args)}
	})
}

// cloneArgs copies an argument list, so a caller may reuse its slice.
func cloneArgs(args []*IntExpr) []*IntExpr {
	cp := make([]*IntExpr, len(args))
	copy(cp, args)
	return cp
}

// appKey returns the hash-consing key of an application.
func appKey(tag byte, name string, args []*IntExpr) consKey {
	k := consKey{tag: tag, arity: int32(len(args)), name: name}
	if len(args) > len(k.kids) {
		k.name = wideKey(name, args)
		return k
	}
	for i, a := range args {
		k.kids[i] = a.id
	}
	return k
}

// wideKey spells a wide application's name and argument IDs into one
// string. The name is length-prefixed so adversarial symbol names
// (containing ':' or digits) cannot alias a different (name, argument)
// split.
func wideKey(name string, args []*IntExpr) string {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(len(name)))
	sb.WriteByte('!')
	sb.WriteString(name)
	for _, a := range args {
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(int(a.id)))
	}
	return sb.String()
}

// Succ returns t+1.
func (b *Builder) Succ(t *IntExpr) *IntExpr {
	// succ(pred(T)) → T
	if t.kind == IPred {
		return t.a
	}
	return b.consInt(consKey{tag: 's', kids: [3]int32{t.id}}, func() *IntExpr {
		return &IntExpr{kind: ISucc, a: t}
	})
}

// Pred returns t−1.
func (b *Builder) Pred(t *IntExpr) *IntExpr {
	// pred(succ(T)) → T
	if t.kind == ISucc {
		return t.a
	}
	return b.consInt(consKey{tag: 'p', kids: [3]int32{t.id}}, func() *IntExpr {
		return &IntExpr{kind: IPred, a: t}
	})
}

// Offset returns t+k (k may be negative), as a succ/pred chain.
func (b *Builder) Offset(t *IntExpr, k int) *IntExpr {
	for ; k > 0; k-- {
		t = b.Succ(t)
	}
	for ; k < 0; k++ {
		t = b.Pred(t)
	}
	return t
}

// Ite returns ITE(c, t, e).
func (b *Builder) Ite(c *BoolExpr, t, e *IntExpr) *IntExpr {
	if c.kind == BTrue {
		return t
	}
	if c.kind == BFalse {
		return e
	}
	if t == e {
		return t
	}
	return b.consInt(consKey{tag: 'i', kids: [3]int32{c.id, t.id, e.id}}, func() *IntExpr {
		return &IntExpr{kind: IIte, cond: c, a: t, b: e}
	})
}

// True returns the Boolean constant true.
func (b *Builder) True() *BoolExpr { return b.t }

// False returns the Boolean constant false.
func (b *Builder) False() *BoolExpr { return b.f }

// Const returns the Boolean constant for v.
func (b *Builder) Const(v bool) *BoolExpr {
	if v {
		return b.t
	}
	return b.f
}

// Not returns ¬x.
func (b *Builder) Not(x *BoolExpr) *BoolExpr {
	switch x.kind {
	case BTrue:
		return b.f
	case BFalse:
		return b.t
	case BNot:
		return x.l
	}
	return b.consBool(consKey{tag: 'n', kids: [3]int32{x.id}}, func() *BoolExpr {
		return &BoolExpr{kind: BNot, l: x}
	})
}

// And returns x ∧ y.
func (b *Builder) And(x, y *BoolExpr) *BoolExpr {
	switch {
	case x.kind == BFalse || y.kind == BFalse:
		return b.f
	case x.kind == BTrue:
		return y
	case y.kind == BTrue:
		return x
	case x == y:
		return x
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.consBool(consKey{tag: 'a', kids: [3]int32{x.id, y.id}}, func() *BoolExpr {
		return &BoolExpr{kind: BAnd, l: x, r: y}
	})
}

// Or returns x ∨ y.
func (b *Builder) Or(x, y *BoolExpr) *BoolExpr {
	switch {
	case x.kind == BTrue || y.kind == BTrue:
		return b.t
	case x.kind == BFalse:
		return y
	case y.kind == BFalse:
		return x
	case x == y:
		return x
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.consBool(consKey{tag: 'o', kids: [3]int32{x.id, y.id}}, func() *BoolExpr {
		return &BoolExpr{kind: BOr, l: x, r: y}
	})
}

// AndN folds And over xs (true for the empty list).
func (b *Builder) AndN(xs ...*BoolExpr) *BoolExpr {
	r := b.t
	for _, x := range xs {
		r = b.And(r, x)
	}
	return r
}

// OrN folds Or over xs (false for the empty list).
func (b *Builder) OrN(xs ...*BoolExpr) *BoolExpr {
	r := b.f
	for _, x := range xs {
		r = b.Or(r, x)
	}
	return r
}

// Implies returns x → y.
func (b *Builder) Implies(x, y *BoolExpr) *BoolExpr { return b.Or(b.Not(x), y) }

// Iff returns x ↔ y.
func (b *Builder) Iff(x, y *BoolExpr) *BoolExpr {
	return b.And(b.Implies(x, y), b.Implies(y, x))
}

// Eq returns t1 = t2.
func (b *Builder) Eq(t1, t2 *IntExpr) *BoolExpr {
	if t1 == t2 {
		return b.t
	}
	return b.consBool(consKey{tag: 'e', kids: [3]int32{t1.id, t2.id}}, func() *BoolExpr {
		return &BoolExpr{kind: BEq, t1: t1, t2: t2}
	})
}

// Lt returns t1 < t2.
func (b *Builder) Lt(t1, t2 *IntExpr) *BoolExpr {
	if t1 == t2 {
		return b.f
	}
	return b.consBool(consKey{tag: 'l', kids: [3]int32{t1.id, t2.id}}, func() *BoolExpr {
		return &BoolExpr{kind: BLt, t1: t1, t2: t2}
	})
}

// Le returns t1 ≤ t2, i.e. ¬(t2 < t1).
func (b *Builder) Le(t1, t2 *IntExpr) *BoolExpr { return b.Not(b.Lt(t2, t1)) }

// Gt returns t1 > t2.
func (b *Builder) Gt(t1, t2 *IntExpr) *BoolExpr { return b.Lt(t2, t1) }

// Ge returns t1 ≥ t2.
func (b *Builder) Ge(t1, t2 *IntExpr) *BoolExpr { return b.Le(t2, t1) }

// PredApp returns the application of predicate symbol name to args.
func (b *Builder) PredApp(name string, args ...*IntExpr) *BoolExpr {
	return b.consBool(appKey('P', name, args), func() *BoolExpr {
		return &BoolExpr{kind: BPred, pn: name, args: cloneArgs(args)}
	})
}

// BoolSym returns the symbolic Boolean constant (zero-arity predicate) name.
func (b *Builder) BoolSym(name string) *BoolExpr { return b.PredApp(name) }

// CountNodes returns the number of DAG nodes (integer and Boolean) reachable
// from f — the paper's formula-size measure.
func CountNodes(f *BoolExpr) int {
	seenB := make(map[*BoolExpr]bool)
	seenI := make(map[*IntExpr]bool)
	var recB func(*BoolExpr)
	var recI func(*IntExpr)
	recI = func(e *IntExpr) {
		if e == nil || seenI[e] {
			return
		}
		seenI[e] = true
		for _, a := range e.args {
			recI(a)
		}
		recB(e.cond)
		recI(e.a)
		recI(e.b)
	}
	recB = func(e *BoolExpr) {
		if e == nil || seenB[e] {
			return
		}
		seenB[e] = true
		for _, a := range e.args {
			recI(a)
		}
		recB(e.l)
		recB(e.r)
		recI(e.t1)
		recI(e.t2)
	}
	recB(f)
	return len(seenB) + len(seenI)
}

// App is one occurrence of an uninterpreted function or predicate symbol.
type App struct {
	IntApp  *IntExpr  // non-nil for function applications
	BoolApp *BoolExpr // non-nil for predicate applications
}

// FuncApps returns, for each function symbol with arity ≥ minArity, its
// distinct applications in first-encountered DFS order.
func FuncApps(f *BoolExpr, minArity int) map[string][]*IntExpr {
	out := make(map[string][]*IntExpr)
	seenB := make(map[*BoolExpr]bool)
	seenI := make(map[*IntExpr]bool)
	var recB func(*BoolExpr)
	var recI func(*IntExpr)
	recI = func(e *IntExpr) {
		if e == nil || seenI[e] {
			return
		}
		seenI[e] = true
		if e.kind == IFunc && len(e.args) >= minArity {
			out[e.fn] = append(out[e.fn], e)
		}
		for _, a := range e.args {
			recI(a)
		}
		recB(e.cond)
		recI(e.a)
		recI(e.b)
	}
	recB = func(e *BoolExpr) {
		if e == nil || seenB[e] {
			return
		}
		seenB[e] = true
		for _, a := range e.args {
			recI(a)
		}
		recB(e.l)
		recB(e.r)
		recI(e.t1)
		recI(e.t2)
	}
	recB(f)
	return out
}

// PredApps returns, for each predicate symbol with arity ≥ minArity, its
// distinct applications in first-encountered DFS order.
func PredApps(f *BoolExpr, minArity int) map[string][]*BoolExpr {
	out := make(map[string][]*BoolExpr)
	seenB := make(map[*BoolExpr]bool)
	seenI := make(map[*IntExpr]bool)
	var recB func(*BoolExpr)
	var recI func(*IntExpr)
	recI = func(e *IntExpr) {
		if e == nil || seenI[e] {
			return
		}
		seenI[e] = true
		for _, a := range e.args {
			recI(a)
		}
		recB(e.cond)
		recI(e.a)
		recI(e.b)
	}
	recB = func(e *BoolExpr) {
		if e == nil || seenB[e] {
			return
		}
		seenB[e] = true
		if e.kind == BPred && len(e.args) >= minArity {
			out[e.pn] = append(out[e.pn], e)
		}
		for _, a := range e.args {
			recI(a)
		}
		recB(e.l)
		recB(e.r)
		recI(e.t1)
		recI(e.t2)
	}
	recB(f)
	return out
}

// QuoteSym renders a symbol name in parseable form: names that collide with
// keywords or numerals, or contain s-expression metacharacters, are wrapped
// in |bars| (the same escape SMT-LIB uses), which Parse understands. Plain
// names print unchanged.
func QuoteSym(s string) string {
	if s == "" || reserved[s] {
		return "|" + s + "|"
	}
	// Byte-wise to mirror the tokenizer exactly (it scans bytes, so a
	// space-like continuation byte inside a multibyte rune still splits).
	for i := 0; i < len(s); i++ {
		if isDelim(s[i]) {
			return "|" + s + "|"
		}
	}
	if isNumeral(s) {
		return "|" + s + "|"
	}
	return s
}

// String prints e in the syntax Parse reads. It writes one buffer, so its
// cost is linear in the printed length even for deep succ/pred chains.
func (e *IntExpr) String() string {
	var sb strings.Builder
	e.print(&sb)
	return sb.String()
}

// String prints e in the syntax Parse reads.
func (e *BoolExpr) String() string {
	var sb strings.Builder
	e.print(&sb)
	return sb.String()
}

// printList writes "(op x y …)".
func printList(sb *strings.Builder, op string, xs ...interface{ print(*strings.Builder) }) {
	sb.WriteByte('(')
	sb.WriteString(op)
	for _, x := range xs {
		sb.WriteByte(' ')
		x.print(sb)
	}
	sb.WriteByte(')')
}

// printApp writes an application; a nullary one is its bare symbol.
func printApp(sb *strings.Builder, name string, args []*IntExpr) {
	if len(args) == 0 {
		sb.WriteString(QuoteSym(name))
		return
	}
	sb.WriteByte('(')
	sb.WriteString(QuoteSym(name))
	for _, a := range args {
		sb.WriteByte(' ')
		a.print(sb)
	}
	sb.WriteByte(')')
}

func (e *IntExpr) print(sb *strings.Builder) {
	switch e.kind {
	case IFunc:
		printApp(sb, e.fn, e.args)
	case ISucc:
		printList(sb, "succ", e.a)
	case IPred:
		printList(sb, "pred", e.a)
	case IIte:
		printList(sb, "ite", e.cond, e.a, e.b)
	default:
		sb.WriteByte('?')
	}
}

func (e *BoolExpr) print(sb *strings.Builder) {
	switch e.kind {
	case BTrue:
		sb.WriteString("true")
	case BFalse:
		sb.WriteString("false")
	case BNot:
		printList(sb, "not", e.l)
	case BAnd:
		printList(sb, "and", e.l, e.r)
	case BOr:
		printList(sb, "or", e.l, e.r)
	case BEq:
		printList(sb, "=", e.t1, e.t2)
	case BLt:
		printList(sb, "<", e.t1, e.t2)
	case BPred:
		printApp(sb, e.pn, e.args)
	default:
		sb.WriteByte('?')
	}
}
