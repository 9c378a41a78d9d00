// Package boolexpr provides a hash-consed Boolean expression DAG and its
// Tseitin transformation to CNF for the sat package.
//
// Every encoder in this module (small-domain, per-constraint, hybrid)
// produces a boolexpr DAG; node counts of these DAGs are the "size of the
// Boolean formula" figures discussed in the paper.
package boolexpr

import (
	"fmt"
	"sort"
	"strings"

	"sufsat/internal/sat"
)

// Kind enumerates node kinds.
type Kind uint8

// Node kinds. Constants are folded away during construction, so interior
// DAG nodes are only Var, Not, And and Or.
const (
	KTrue Kind = iota
	KFalse
	KVar
	KNot
	KAnd
	KOr
)

// Node is an immutable hash-consed Boolean expression. Nodes are created
// through a Builder; two structurally equal nodes from the same Builder are
// pointer-equal.
type Node struct {
	kind Kind
	id   int32
	name string // KVar only
	a, b *Node  // KNot uses a; KAnd/KOr use a and b
}

// Kind returns the node kind.
func (n *Node) Kind() Kind { return n.kind }

// Name returns the variable name (KVar nodes only).
func (n *Node) Name() string { return n.name }

// ID returns a builder-unique node identifier.
func (n *Node) ID() int32 { return n.id }

// Children returns the operand nodes (nil-padded).
func (n *Node) Children() (a, b *Node) { return n.a, n.b }

// IsConst reports whether n is the constant true or false.
func (n *Node) IsConst() bool { return n.kind == KTrue || n.kind == KFalse }

type opKey struct {
	kind   Kind
	ai, bi int32
}

// Builder hash-conses Boolean expression nodes.
type Builder struct {
	t, f   *Node
	vars   map[string]*Node
	ops    map[opKey]*Node
	nextID int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{
		vars: make(map[string]*Node),
		ops:  make(map[opKey]*Node),
	}
	b.t = b.newNode(&Node{kind: KTrue})
	b.f = b.newNode(&Node{kind: KFalse})
	return b
}

func (b *Builder) newNode(n *Node) *Node {
	n.id = b.nextID
	b.nextID++
	return n
}

// NumNodes returns the number of distinct nodes created.
func (b *Builder) NumNodes() int { return int(b.nextID) }

// True returns the constant true.
func (b *Builder) True() *Node { return b.t }

// False returns the constant false.
func (b *Builder) False() *Node { return b.f }

// Const returns the constant for v.
func (b *Builder) Const(v bool) *Node {
	if v {
		return b.t
	}
	return b.f
}

// Var returns the variable named name, creating it on first use.
func (b *Builder) Var(name string) *Node {
	if n, ok := b.vars[name]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KVar, name: name})
	b.vars[name] = n
	return n
}

// NumVars returns the number of distinct variables.
func (b *Builder) NumVars() int { return len(b.vars) }

// Not returns ¬x.
func (b *Builder) Not(x *Node) *Node {
	switch x.kind {
	case KTrue:
		return b.f
	case KFalse:
		return b.t
	case KNot:
		return x.a
	}
	key := opKey{KNot, x.id, -1}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KNot, a: x})
	b.ops[key] = n
	return n
}

// And returns x ∧ y.
func (b *Builder) And(x, y *Node) *Node {
	switch {
	case x.kind == KFalse || y.kind == KFalse:
		return b.f
	case x.kind == KTrue:
		return y
	case y.kind == KTrue:
		return x
	case x == y:
		return x
	case b.isComplement(x, y):
		return b.f
	}
	if x.id > y.id {
		x, y = y, x
	}
	key := opKey{KAnd, x.id, y.id}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KAnd, a: x, b: y})
	b.ops[key] = n
	return n
}

// Or returns x ∨ y.
func (b *Builder) Or(x, y *Node) *Node {
	switch {
	case x.kind == KTrue || y.kind == KTrue:
		return b.t
	case x.kind == KFalse:
		return y
	case y.kind == KFalse:
		return x
	case x == y:
		return x
	case b.isComplement(x, y):
		return b.t
	}
	if x.id > y.id {
		x, y = y, x
	}
	key := opKey{KOr, x.id, y.id}
	if n, ok := b.ops[key]; ok {
		return n
	}
	n := b.newNode(&Node{kind: KOr, a: x, b: y})
	b.ops[key] = n
	return n
}

func (b *Builder) isComplement(x, y *Node) bool {
	return (x.kind == KNot && x.a == y) || (y.kind == KNot && y.a == x)
}

// AndN folds And over xs (true for the empty list).
func (b *Builder) AndN(xs ...*Node) *Node {
	r := b.t
	for _, x := range xs {
		r = b.And(r, x)
	}
	return r
}

// OrN folds Or over xs (false for the empty list).
func (b *Builder) OrN(xs ...*Node) *Node {
	r := b.f
	for _, x := range xs {
		r = b.Or(r, x)
	}
	return r
}

// Implies returns x → y.
func (b *Builder) Implies(x, y *Node) *Node { return b.Or(b.Not(x), y) }

// Iff returns x ↔ y.
func (b *Builder) Iff(x, y *Node) *Node {
	return b.And(b.Implies(x, y), b.Implies(y, x))
}

// Xor returns x ⊕ y.
func (b *Builder) Xor(x, y *Node) *Node {
	return b.Or(b.And(x, b.Not(y)), b.And(b.Not(x), y))
}

// Ite returns if c then t else e.
func (b *Builder) Ite(c, t, e *Node) *Node {
	if c.kind == KTrue {
		return t
	}
	if c.kind == KFalse {
		return e
	}
	if t == e {
		return t
	}
	return b.Or(b.And(c, t), b.And(b.Not(c), e))
}

// Eval evaluates n under the given variable assignment; variables absent
// from env evaluate to false.
func Eval(n *Node, env map[string]bool) bool {
	memo := make(map[*Node]bool)
	var rec func(*Node) bool
	rec = func(m *Node) bool {
		if v, ok := memo[m]; ok {
			return v
		}
		var v bool
		switch m.kind {
		case KTrue:
			v = true
		case KFalse:
			v = false
		case KVar:
			v = env[m.name]
		case KNot:
			v = !rec(m.a)
		case KAnd:
			v = rec(m.a) && rec(m.b)
		case KOr:
			v = rec(m.a) || rec(m.b)
		}
		memo[m] = v
		return v
	}
	return rec(n)
}

// Vars returns the sorted names of variables occurring in n.
func Vars(n *Node) []string {
	seen := make(map[*Node]bool)
	var names []string
	var rec func(*Node)
	rec = func(m *Node) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		if m.kind == KVar {
			names = append(names, m.name)
		}
		rec(m.a)
		rec(m.b)
	}
	rec(n)
	sort.Strings(names)
	return names
}

// CountNodes returns the number of DAG nodes reachable from n.
func CountNodes(n *Node) int {
	seen := make(map[*Node]bool)
	var rec func(*Node)
	rec = func(m *Node) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		rec(m.a)
		rec(m.b)
	}
	rec(n)
	return len(seen)
}

// String renders n as a formula (exponential on deep DAGs; for debugging and
// small tests only).
func (n *Node) String() string {
	var sb strings.Builder
	var rec func(*Node)
	rec = func(m *Node) {
		switch m.kind {
		case KTrue:
			sb.WriteString("true")
		case KFalse:
			sb.WriteString("false")
		case KVar:
			sb.WriteString(m.name)
		case KNot:
			sb.WriteString("!")
			rec(m.a)
		case KAnd, KOr:
			op := " & "
			if m.kind == KOr {
				op = " | "
			}
			sb.WriteString("(")
			rec(m.a)
			sb.WriteString(op)
			rec(m.b)
			sb.WriteString(")")
		default:
			fmt.Fprintf(&sb, "?%d", m.kind)
		}
	}
	rec(n)
	return sb.String()
}

// CNF is the result of a Tseitin transformation: the literal equivalent to
// the root formula and the mapping of source variables to solver literals.
type CNF struct {
	Top     sat.Lit
	VarLits map[string]sat.Lit
}

// ToCNF applies the Tseitin transformation of n into solver s and returns
// the defining literal of n. It does not assert the top literal; use
// AssertTrue for that. Constant nodes are handled by a dedicated always-true
// variable.
func ToCNF(n *Node, s *sat.Solver) CNF {
	c := CNF{VarLits: make(map[string]sat.Lit)}
	// The memo is indexed by node ID: a node is created after its operands,
	// so n's ID bounds every ID in its DAG.
	lits := make([]sat.Lit, n.id+1)
	for i := range lits {
		lits[i] = sat.LitUndef
	}
	var constTrue sat.Lit = sat.LitUndef
	getConstTrue := func() sat.Lit {
		if constTrue == sat.LitUndef {
			v := s.NewVar()
			constTrue = sat.PosLit(v)
			s.AddClause(constTrue)
		}
		return constTrue
	}

	// Iterative post-order over the DAG.
	type frame struct {
		n        *Node
		expanded bool
	}
	stack := []frame{{n, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := f.n
		if lits[m.id] != sat.LitUndef {
			continue
		}
		if !f.expanded {
			stack = append(stack, frame{m, true})
			if m.a != nil {
				stack = append(stack, frame{m.a, false})
			}
			if m.b != nil {
				stack = append(stack, frame{m.b, false})
			}
			continue
		}
		var l sat.Lit
		switch m.kind {
		case KTrue:
			l = getConstTrue()
		case KFalse:
			l = getConstTrue().Not()
		case KVar:
			if vl, ok := c.VarLits[m.name]; ok {
				l = vl
			} else {
				l = sat.PosLit(s.NewVar())
				c.VarLits[m.name] = l
			}
		case KNot:
			l = lits[m.a.id].Not()
		case KAnd:
			la, lb := lits[m.a.id], lits[m.b.id]
			x := sat.PosLit(s.NewVar())
			s.AddClause(x.Not(), la)
			s.AddClause(x.Not(), lb)
			s.AddClause(x, la.Not(), lb.Not())
			l = x
		case KOr:
			la, lb := lits[m.a.id], lits[m.b.id]
			x := sat.PosLit(s.NewVar())
			s.AddClause(x.Not(), la, lb)
			s.AddClause(x, la.Not())
			s.AddClause(x, lb.Not())
			l = x
		}
		lits[m.id] = l
	}
	c.Top = lits[n.id]
	return c
}

// AssertTrue converts n to CNF in s and asserts that it holds.
func AssertTrue(n *Node, s *sat.Solver) CNF {
	c := ToCNF(n, s)
	s.AddClause(c.Top)
	return c
}
