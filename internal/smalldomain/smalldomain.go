// Package smalldomain implements the SD (small-domain / finite
// instantiation) Boolean encoding of separation logic (§2.1.2 method 1 of
// the paper).
//
// Every general symbolic constant of class V_i is encoded as a bit-vector of
// fresh Boolean variables whose width follows from the small-model property:
// if the formula is falsifiable, it is falsifiable with each constant of V_i
// drawn from a domain of size range(V_i) = Σ_v (u(v) − l(v) + 1). succ/pred
// offsets are folded into constant additions, ITE terms become bitwise
// multiplexers, and the relational operators are re-interpreted over
// bit-vectors with binary arithmetic (§4 step 5).
//
// Two representation choices keep the arithmetic overflow-free and make
// maximal diversity concrete:
//
//   - each general constant v is encoded pre-shifted by its own minimum
//     offset l(v) (the encoded variable stands for v + l(v)), so every
//     ground term v+k becomes a bit-vector plus the non-negative constant
//     k − l(v), and the small-model window [0, range(V_i)) applies to the
//     shifted variable (separation predicates are shift-invariant per
//     variable as long as all its occurrences shift together);
//   - V_p constants receive fixed bit patterns spaced more than the total
//     offset spread apart and above every representable V_g value, so two
//     distinct p-terms never compare equal — the paper's "distinct
//     bit-string values".
//
// Atom bit-widths are sized from the maximum representable value on either
// side, so additions cannot wrap and the finite encoding is exact.
package smalldomain

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"sufsat/internal/boolexpr"
	"sufsat/internal/enc"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// Stats reports encoding-size counters.
type Stats struct {
	// BitVars is the number of Boolean variables allocated for bit-vectors.
	BitVars int
	// MaxWidth is the widest bit-vector used in any atom.
	MaxWidth int
	// MaxRange is the largest class domain size (a formula feature studied
	// in §3 of the paper).
	MaxRange int
	// SumRange is the sum of the class domain sizes (another §3 feature).
	SumRange int
}

// Encoder encodes separation atoms over small domains.
type Encoder struct {
	bb   *boolexpr.Builder
	sb   *suf.Builder
	info *sep.Info
	// Ctx, when non-nil, is polled during atom encoding; once done, encoding
	// aborts with the context's error.
	Ctx       context.Context
	atomCalls int // EncodeAtom invocations, gating context polls

	walker *enc.Walker
	vecs   map[string][]*boolexpr.Node // g-constant → bit-vector (class width)
	lshift map[string]int64            // g-constant → l(v): vector stands for v+l(v)
	pvals  map[string]int64            // p-constant → fixed value
	pbias  int64                       // L: added to p-term offsets to keep them ≥ 0
	maxG   int64                       // max representable g-term value

	termMemo map[termKey][]*boolexpr.Node
	stats    Stats
}

type termKey struct {
	t     *suf.IntExpr
	width int
}

// NewEncoder builds a small-domain encoder for the analyzed formula info.
func NewEncoder(info *sep.Info, sb *suf.Builder, bb *boolexpr.Builder) *Encoder {
	e := &Encoder{
		bb: bb, sb: sb, info: info,
		vecs:     make(map[string][]*boolexpr.Node),
		lshift:   make(map[string]int64),
		pvals:    make(map[string]int64),
		termMemo: make(map[termKey][]*boolexpr.Node),
	}
	e.walker = enc.NewWalker(bb, e.EncodeAtom)
	e.pbias = int64(-info.MaxNegOff)
	spread := int64(info.MaxPosOff) + e.pbias // K + L: total offset spread

	// Class widths and g-constant vectors. The vector for v represents the
	// shifted value v + l(v), so ground terms v+k add k − l(v) ≥ 0.
	for _, cl := range info.Classes {
		w := bitsFor(int64(cl.Range - 1))
		if cl.Range > e.stats.MaxRange {
			e.stats.MaxRange = cl.Range
		}
		e.stats.SumRange += cl.Range
		gmax := int64(1)<<uint(w) - 1 + spread
		if gmax > e.maxG {
			e.maxG = gmax
		}
		for _, v := range cl.Consts {
			vec := make([]*boolexpr.Node, w)
			for i := range vec {
				vec[i] = bb.Var("sd!" + v + "!" + strconv.Itoa(i))
			}
			e.vecs[v] = vec
			if l, ok := cl.L[v]; ok {
				e.lshift[v] = int64(l)
			}
			e.stats.BitVars += w
		}
	}

	// Fixed values for V_p constants: spaced by more than the total offset
	// spread, starting above every representable g-term value.
	spacing := spread + 1
	base := e.maxG + spread + 1
	var pnames []string
	for v := range info.PConsts {
		pnames = append(pnames, v)
	}
	sort.Strings(pnames)
	for j, v := range pnames {
		e.pvals[v] = base + int64(j)*spacing
	}
	return e
}

// Walker returns the formula walker bound to this encoder.
func (e *Encoder) Walker() *enc.Walker { return e.walker }

// SetWalker replaces the walker used for ITE guard conditions (hybrid use).
func (e *Encoder) SetWalker(w *enc.Walker) { e.walker = w }

// Stats returns the current counters.
func (e *Encoder) Stats() Stats { return e.stats }

// bitsFor returns the number of bits needed to represent values 0..m.
func bitsFor(m int64) int {
	w := 1
	for int64(1)<<uint(w)-1 < m {
		w++
	}
	return w
}

// leafMax returns the maximum encoded value the ground leaf can take.
func (e *Encoder) leafMax(g sep.Ground) int64 {
	if pv, ok := e.pvals[g.Var]; ok {
		return pv + int64(g.Off) + e.pbias
	}
	var base int64
	if vec, ok := e.vecs[g.Var]; ok {
		base = int64(1)<<uint(len(vec)) - 1
	}
	return base + int64(g.Off) - e.lshift[g.Var]
}

// termMax returns the maximum biased value of a normalized term.
func (e *Encoder) termMax(t *suf.IntExpr) int64 {
	var m int64
	for _, g := range sep.Leaves(t) {
		if v := e.leafMax(g); v > m {
			m = v
		}
	}
	return m
}

// EncodeAtom encodes an equality or inequality atom with bit-vector
// comparison at a width wide enough for both sides.
func (e *Encoder) EncodeAtom(a *suf.BoolExpr) (*boolexpr.Node, error) {
	e.atomCalls++
	if e.Ctx != nil && e.atomCalls&63 == 0 {
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	t1, t2 := a.Terms()
	m := e.termMax(t1)
	if m2 := e.termMax(t2); m2 > m {
		m = m2
	}
	w := bitsFor(m)
	if w > e.stats.MaxWidth {
		e.stats.MaxWidth = w
	}
	b1, err := e.encodeTerm(t1, w)
	if err != nil {
		return nil, err
	}
	b2, err := e.encodeTerm(t2, w)
	if err != nil {
		return nil, err
	}
	if a.Kind() == suf.BEq {
		return e.bvEq(b1, b2), nil
	}
	return e.bvUlt(b1, b2), nil
}

// encodeTerm produces the biased bit-vector of t at the given width
// (little-endian: index 0 is the LSB).
func (e *Encoder) encodeTerm(t *suf.IntExpr, width int) ([]*boolexpr.Node, error) {
	key := termKey{t, width}
	if v, ok := e.termMemo[key]; ok {
		return v, nil
	}
	var out []*boolexpr.Node
	if t.Kind() == suf.IIte {
		c, err := e.walker.Encode(t.Cond())
		if err != nil {
			return nil, err
		}
		a, el := t.Branches()
		va, err := e.encodeTerm(a, width)
		if err != nil {
			return nil, err
		}
		ve, err := e.encodeTerm(el, width)
		if err != nil {
			return nil, err
		}
		out = make([]*boolexpr.Node, width)
		for i := 0; i < width; i++ {
			out[i] = e.bb.Ite(c, va[i], ve[i])
		}
	} else {
		g := sep.DecomposeGround(t)
		if pv, ok := e.pvals[g.Var]; ok {
			out = e.constVector(pv+int64(g.Off)+e.pbias, width)
		} else {
			vec, ok := e.vecs[g.Var]
			if !ok {
				return nil, fmt.Errorf("smalldomain: unknown constant %q", g.Var)
			}
			out = e.addConst(e.extend(vec, width), int64(g.Off)-e.lshift[g.Var])
		}
	}
	e.termMemo[key] = out
	return out, nil
}

// constVector encodes the constant v at the given width; v must fit.
func (e *Encoder) constVector(v int64, width int) []*boolexpr.Node {
	out := make([]*boolexpr.Node, width)
	for i := 0; i < width; i++ {
		out[i] = e.bb.Const(v>>uint(i)&1 == 1)
	}
	return out
}

// extend zero-extends vec to width.
func (e *Encoder) extend(vec []*boolexpr.Node, width int) []*boolexpr.Node {
	if len(vec) >= width {
		return vec[:width]
	}
	out := make([]*boolexpr.Node, width)
	copy(out, vec)
	for i := len(vec); i < width; i++ {
		out[i] = e.bb.False()
	}
	return out
}

// addConst adds the non-negative constant k with a ripple-carry chain. The
// caller guarantees the sum fits in len(vec) bits.
func (e *Encoder) addConst(vec []*boolexpr.Node, k int64) []*boolexpr.Node {
	if k == 0 {
		return vec
	}
	bb := e.bb
	out := make([]*boolexpr.Node, len(vec))
	carry := bb.False()
	for i := range vec {
		bit := bb.Const(k>>uint(i)&1 == 1)
		// sum = a ⊕ b ⊕ carry; carryOut = majority(a, b, carry)
		axb := bb.Xor(vec[i], bit)
		out[i] = bb.Xor(axb, carry)
		carry = bb.Or(bb.And(vec[i], bit), bb.And(axb, carry))
	}
	return out
}

// bvEq is bitwise equality.
func (e *Encoder) bvEq(a, b []*boolexpr.Node) *boolexpr.Node {
	out := e.bb.True()
	for i := range a {
		out = e.bb.And(out, e.bb.Iff(a[i], b[i]))
	}
	return out
}

// bvUlt is the unsigned comparator a < b, built LSB-first:
// lt_k = (¬a_k ∧ b_k) ∨ ((a_k ↔ b_k) ∧ lt_{k−1}).
func (e *Encoder) bvUlt(a, b []*boolexpr.Node) *boolexpr.Node {
	lt := e.bb.False()
	for i := range a {
		lt = e.bb.Or(
			e.bb.And(e.bb.Not(a[i]), b[i]),
			e.bb.And(e.bb.Iff(a[i], b[i]), lt),
		)
	}
	return lt
}

// DecodeConsts reconstructs integer values for the general constants whose
// bit variables the SAT model assigns. val maps a bit-variable name to its
// value and whether it is known (variables folded out of the CNF are
// unknown and their bits default to 0, which is sound: they were
// unconstrained). Constants with no known bit at all are omitted, so a
// hybrid caller can fill them from the per-constraint model instead. The
// returned values are the *shifted* encodings un-shifted back to v itself.
func (e *Encoder) DecodeConsts(val func(name string) (value, known bool)) map[string]int64 {
	out := make(map[string]int64)
	for v, vec := range e.vecs {
		var x int64
		any := false
		for i := range vec {
			bit, known := val("sd!" + v + "!" + strconv.Itoa(i))
			if known {
				any = true
				if bit {
					x |= 1 << uint(i)
				}
			}
		}
		if any {
			out[v] = x - e.lshift[v]
		}
	}
	return out
}
