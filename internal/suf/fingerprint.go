package suf

// Canonical, alpha-renaming-invariant fingerprinting for SUF DAGs.
//
// Fingerprint(f) hashes a canonical serialization of the formula DAG in
// which uninterpreted symbol *names* never appear: symbols are identified by
// the order in which a canonical traversal first reaches them, and the
// children of commutative connectives (And, Or, Eq) are ordered by a
// name-blind structural digest rather than by construction order. Two
// formulas that differ only by a consistent renaming of their uninterpreted
// symbols, by the argument order of commutative connectives, or by being
// rebuilt in a different Builder therefore fingerprint identically — which
// is exactly the equivalence class a verdict cache or a consistent-hash
// router wants as its key, since validity is invariant under both
// transformations.
//
// The structural digests are 128 bits wide and come from a fixed,
// process-independent mix of two 64-bit lanes (see fpDigest); SHA-256 runs
// once, over the canonical bytes. The digests only choose the order in which
// the serialization lists the children of commutative nodes, so a digest
// collision can at worst order two siblings differently: a cache miss, never
// a wrong verdict. Fingerprint values are specific to this digest: a release
// that changes it re-keys a router's ring and starts verdict caches cold
// once.
//
// Guarantee direction: equal fingerprints imply (modulo SHA-256 collisions)
// that the canonical serializations are equal, and the serialization is a
// faithful encoding of the DAG up to symbol renaming and commutative
// reordering — so a collision never conflates semantically distinct
// formulas. The converse is best-effort: ordering ties between structurally
// indistinguishable siblings are resolved by a few rounds of
// Weisfeiler-Leman-style color refinement over the symbol occurrences, which
// separates every case that matters in practice, but pathological symmetric
// formulas may still canonicalize differently from two different
// construction orders. Such a false miss costs a cache entry, never a wrong
// verdict.

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// refineRounds is the number of WL color-refinement rounds applied to the
// uninterpreted symbols before the canonical traversal. Each round feeds the
// symbols' colors back into the digests, so symbols told apart in one round
// can tell others apart in the next; three rounds separate every
// non-automorphic tie the test corpus (and the bench families) produce, and
// automorphic ties are harmless by definition.
const refineRounds = 3

// fpDigest is a 128-bit name-blind structural digest. It absorbs 64-bit
// words through two lanes with different bijective finalizers (MurmurHash3's
// fmix64 and SplitMix64's), seeded with fixed constants, so it is the same
// in every process.
type fpDigest struct{ hi, lo uint64 }

// fpSeed is the digest of the empty input: the first 128 bits of π's
// fractional part.
var fpSeed = fpDigest{0x243f6a8885a308d3, 0x13198a2e03707344}

func (d fpDigest) mix(v uint64) fpDigest {
	hi := d.hi ^ v
	hi ^= hi >> 33
	hi *= 0xff51afd7ed558ccd
	hi ^= hi >> 33
	hi *= 0xc4ceb9fe1a85ec53
	hi ^= hi >> 33
	lo := d.lo + v
	lo ^= lo >> 30
	lo *= 0xbf58476d1ce4e5b9
	lo ^= lo >> 27
	lo *= 0x94d049bb133111eb
	lo ^= lo >> 31
	return fpDigest{hi, lo}
}

func (d fpDigest) mixDigest(e fpDigest) fpDigest { return d.mix(e.hi).mix(e.lo) }

// add combines digests lane-wise by addition, which is commutative: a
// multiset of digests folds to the same sum in any order, without sorting.
func (d fpDigest) add(e fpDigest) fpDigest { return fpDigest{d.hi + e.hi, d.lo + e.lo} }

func (d fpDigest) compare(e fpDigest) int {
	if c := cmp.Compare(d.hi, e.hi); c != 0 {
		return c
	}
	return cmp.Compare(d.lo, e.lo)
}

// fpNode is one DAG node flattened for canonicalization, stored at its
// builder ID. Children have smaller IDs than their parents, so a scan in ID
// order is a bottom-up pass.
type fpNode struct {
	tag     byte  // structural tag, see flatten; 0: not reachable from the root
	sym     int32 // symbol-table index, or -1
	kid, nk int32 // the children's IDs are kids[kid : kid+nk]
}

// commutative reports whether the children of a node with this tag form a
// multiset rather than a sequence. Every commutative node (And, Or, Eq) is
// binary.
func commutative(tag byte) bool { return tag == '&' || tag == '|' || tag == '=' }

// fpSymKey identifies an uninterpreted symbol. Arity is part of the key so a
// name used at two arities (the builder permits it) stays two symbols, and
// the class byte keeps function and predicate namespaces apart.
type fpSymKey struct {
	class byte // 'F' function/constant, 'P' predicate/boolean
	name  string
	arity int
}

// fpGraph is a DAG flattened into dense tables indexed by builder ID. A
// DAG's root has its largest ID, so the tables have length root.ID()+1.
type fpGraph struct {
	nodes []fpNode
	kids  []int32 // every node's children, as builder IDs
	nsyms int32
	root  int32
}

// Fingerprint returns the hex SHA-256 of the canonical serialization of f.
func Fingerprint(f *BoolExpr) string {
	sum := sha256.Sum256(CanonicalBytes(f))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// CanonicalBytes returns the canonical serialization itself. Exposed so
// tests (and debugging) can inspect *why* two formulas did or did not
// collide; production callers want Fingerprint.
func CanonicalBytes(f *BoolExpr) []byte {
	g := flatten(f)
	return g.emit(g.refine())
}

// flatten walks the DAG iteratively (formulas can be deep BMC unrollings;
// no recursion) into the graph's tables.
func flatten(f *BoolExpr) *fpGraph {
	n := int(f.id) + 1
	g := &fpGraph{nodes: make([]fpNode, n), kids: make([]int32, 0, 2*n), root: f.id}
	syms := make(map[fpSymKey]int32)
	symIndex := func(class byte, name string, arity int) int32 {
		k := fpSymKey{class, name, arity}
		i, ok := syms[k]
		if !ok {
			i = g.nsyms
			g.nsyms++
			syms[k] = i
		}
		return i
	}

	// Explicit DFS stack over both expression sorts. A node is recorded,
	// with its children's IDs, when first popped.
	type frame struct {
		b *BoolExpr
		i *IntExpr
	}
	stack := []frame{{b: f}}
	kidB := func(e *BoolExpr) {
		g.kids = append(g.kids, e.id)
		stack = append(stack, frame{b: e})
	}
	kidI := func(e *IntExpr) {
		g.kids = append(g.kids, e.id)
		stack = append(stack, frame{i: e})
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if n := fr.b; n != nil {
			nd := &g.nodes[n.id]
			if nd.tag != 0 {
				continue
			}
			*nd = fpNode{sym: -1, kid: int32(len(g.kids))}
			switch n.kind {
			case BTrue:
				nd.tag = 't'
			case BFalse:
				nd.tag = 'f'
			case BNot:
				nd.tag = 'n'
				kidB(n.l)
			case BAnd, BOr:
				nd.tag = '&'
				if n.kind == BOr {
					nd.tag = '|'
				}
				kidB(n.l)
				kidB(n.r)
			case BEq, BLt:
				nd.tag = '='
				if n.kind == BLt {
					nd.tag = '<'
				}
				kidI(n.t1)
				kidI(n.t2)
			case BPred:
				nd.tag = 'P'
				nd.sym = symIndex('P', n.pn, len(n.args))
				for _, a := range n.args {
					kidI(a)
				}
			}
			nd.nk = int32(len(g.kids)) - nd.kid
			continue
		}

		t := fr.i
		nd := &g.nodes[t.id]
		if nd.tag != 0 {
			continue
		}
		*nd = fpNode{sym: -1, kid: int32(len(g.kids))}
		switch t.kind {
		case IFunc:
			nd.tag = 'a'
			nd.sym = symIndex('F', t.fn, len(t.args))
			for _, a := range t.args {
				kidI(a)
			}
		case ISucc:
			nd.tag = 's'
			kidI(t.a)
		case IPred:
			nd.tag = 'd'
			kidI(t.a)
		case IIte:
			nd.tag = 'i'
			kidB(t.cond)
			kidI(t.a)
			kidI(t.b)
		}
		nd.nk = int32(len(g.kids)) - nd.kid
	}
	return g
}

// refine computes name-blind structural digests for every node, iterating
// digest computation with WL color refinement of the symbol table: a
// symbol's color absorbs the multiset of its occurrence contexts, so symbols
// that play different roles in the formula acquire different colors even
// though their names never enter any digest. An occurrence's context is its
// own digest (what the symbol is applied to) and where it sits: the multiset
// of its parents' digests with the child role, each with the parent's own
// context, up to the root. Multisets fold by add. Returns the final node
// digests, indexed by builder ID.
func (g *fpGraph) refine() []fpDigest {
	colors := make([]fpDigest, g.nsyms)
	for _, nd := range g.nodes {
		if nd.tag != 0 && nd.sym >= 0 {
			// Initial color: class and arity only. Every same-shaped
			// symbol starts identical; refinement separates them by usage.
			colors[nd.sym] = fpSeed.mix(uint64(nd.tag)<<32 | uint64(nd.nk))
		}
	}

	dig := make([]fpDigest, len(g.nodes))
	ctx := make([]fpDigest, len(g.nodes))
	occs := make([]fpDigest, g.nsyms)
	for round := 0; ; round++ {
		// Bottom-up digest pass.
		for i, nd := range g.nodes {
			if nd.tag == 0 {
				continue
			}
			d := fpSeed.mix(uint64(nd.tag)<<32 | uint64(nd.nk))
			if nd.sym >= 0 {
				d = d.mixDigest(colors[nd.sym])
			}
			kids := g.kids[nd.kid : nd.kid+nd.nk]
			if commutative(nd.tag) && dig[kids[1]].compare(dig[kids[0]]) < 0 {
				d = d.mixDigest(dig[kids[1]]).mixDigest(dig[kids[0]])
			} else {
				for _, k := range kids {
					d = d.mixDigest(dig[k])
				}
			}
			dig[i] = d
		}
		if round == refineRounds {
			return dig
		}

		// Top-down context pass. Parents have larger IDs than their
		// children, so a scan in decreasing ID order completes every
		// node's context before passing it on.
		clear(ctx)
		ctx[g.root] = fpSeed
		for i := len(g.nodes) - 1; i >= 0; i-- {
			nd := g.nodes[i]
			if nd.tag == 0 {
				continue
			}
			up := ctx[i].mixDigest(dig[i])
			for role, k := range g.kids[nd.kid : nd.kid+nd.nk] {
				if commutative(nd.tag) {
					role = 0
				}
				ctx[k] = ctx[k].add(up.mix(uint64(role)))
			}
		}

		// Color refinement: fold each symbol's occurrence contexts into its
		// color.
		clear(occs)
		for i, nd := range g.nodes {
			if nd.tag != 0 && nd.sym >= 0 {
				occs[nd.sym] = occs[nd.sym].add(dig[i].mixDigest(ctx[i]))
			}
		}
		for s := range colors {
			colors[s] = colors[s].mixDigest(occs[s])
		}
	}
}

// emit serializes the graph in canonical order: an iterative post-order DFS
// from the root that visits the children of commutative nodes in digest
// order (construction order on ties, which refinement has made automorphic
// or vanishingly rare), numbering nodes and symbols by first encounter. The
// serialization names nodes and symbols only by those canonical numbers.
func (g *fpGraph) emit(dig []fpDigest) []byte {
	// Canonical numbers are stored plus one, so zero means unnumbered.
	canonID := make([]int32, len(g.nodes))
	symID := make([]int32, g.nsyms)
	nextNode, nextSym := int32(0), int32(0)
	buf := make([]byte, 0, 8*len(g.nodes))

	type frame struct {
		node     int32
		expanded bool
	}
	stack := []frame{{node: g.root}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if canonID[fr.node] > 0 {
			continue
		}
		n := g.nodes[fr.node]
		kids := g.kids[n.kid : n.kid+n.nk]
		swap := commutative(n.tag) && dig[kids[1]].compare(dig[kids[0]]) < 0
		if !fr.expanded {
			stack = append(stack, frame{node: fr.node, expanded: true})
			if swap {
				stack = append(stack, frame{node: kids[0]}, frame{node: kids[1]})
			} else {
				for i := len(kids) - 1; i >= 0; i-- {
					stack = append(stack, frame{node: kids[i]})
				}
			}
			continue
		}
		if n.sym >= 0 && symID[n.sym] == 0 {
			nextSym++
			symID[n.sym] = nextSym
		}
		nextNode++
		canonID[fr.node] = nextNode

		buf = append(buf, n.tag)
		if n.sym >= 0 {
			buf = strconv.AppendInt(buf, int64(symID[n.sym]-1), 10)
		}
		if len(kids) > 0 {
			buf = append(buf, '(')
			if commutative(n.tag) {
				lo, hi := canonID[kids[0]], canonID[kids[1]]
				buf = strconv.AppendInt(buf, int64(min(lo, hi)-1), 10)
				buf = append(buf, ',')
				buf = strconv.AppendInt(buf, int64(max(lo, hi)-1), 10)
			} else {
				for i, k := range kids {
					if i > 0 {
						buf = append(buf, ',')
					}
					buf = strconv.AppendInt(buf, int64(canonID[k]-1), 10)
				}
			}
			buf = append(buf, ')')
		}
		buf = append(buf, ';')
	}
	return buf
}
