package suf_test

// The reference canonicalizer: the same canonical serialization, with a
// SHA-256 per node per refinement round as the structural digest, sorted
// multisets, and occurrence contexts one parent level deep. It reads nodes
// through suf's accessors and is the oracle of
// TestFingerprintMatchesReference: over the suite, both must put formulas
// into the same groups.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"

	"sufsat/internal/suf"
)

// refineRounds is the number of WL color-refinement rounds applied to the
// uninterpreted symbols before the canonical traversal. Each round lets one
// more level of surrounding context distinguish symbols that look alike;
// three rounds separate every non-automorphic tie the test corpus (and the
// bench families) produce, and automorphic ties are harmless by definition.
const refineRounds = 3

type fpDigest [sha256.Size]byte

// fpNode is one DAG node flattened for canonicalization. Children always
// precede their parents in the node slice (topological order), so a single
// forward scan is a bottom-up pass.
type fpNode struct {
	tag  byte  // structural tag, see flatten
	sym  int32 // symbol-table index, or -1
	comm bool  // commutative: children form a multiset, not a sequence
	kids []int32
}

type fpParent struct {
	node int32
	role int32 // child position; 0 for all children of commutative nodes
}

// fpSymKey identifies an uninterpreted symbol. Arity is part of the key so a
// name used at two arities (the builder permits it) stays two symbols, and
// the class byte keeps function and predicate namespaces apart.
type fpSymKey struct {
	class byte // 'F' function/constant, 'P' predicate/boolean
	name  string
	arity int
}

type fpGraph struct {
	nodes   []fpNode
	parents [][]fpParent
	symOcc  [][]int32 // per symbol: node indices of its applications
	root    int32
}

// refFingerprint returns the hex SHA-256 of the canonical serialization of f.
func refFingerprint(f *suf.BoolExpr) string {
	sum := sha256.Sum256(refCanonicalBytes(f))
	return hex.EncodeToString(sum[:])
}

// refCanonicalBytes returns the canonical serialization itself.
func refCanonicalBytes(f *suf.BoolExpr) []byte {
	g := flatten(f)
	dig := g.refine()
	return g.emit(dig)
}

// flatten walks the DAG iteratively (formulas can be deep BMC unrollings;
// no recursion) into a topologically ordered node slice with a parent index
// and a symbol occurrence table.
func flatten(f *suf.BoolExpr) *fpGraph {
	g := &fpGraph{}
	syms := make(map[fpSymKey]int32)
	seenB := make(map[*suf.BoolExpr]int32)
	seenI := make(map[*suf.IntExpr]int32)

	symIndex := func(class byte, name string, arity int) int32 {
		k := fpSymKey{class, name, arity}
		if i, ok := syms[k]; ok {
			return i
		}
		i := int32(len(g.symOcc))
		syms[k] = i
		g.symOcc = append(g.symOcc, nil)
		return i
	}
	add := func(n fpNode) int32 {
		id := int32(len(g.nodes))
		g.nodes = append(g.nodes, n)
		if n.sym >= 0 {
			g.symOcc[n.sym] = append(g.symOcc[n.sym], id)
		}
		return id
	}

	// Explicit DFS stack over both expression sorts. An entry is pushed
	// unexpanded, re-pushed expanded, and materialized (children already
	// numbered) when popped the second time.
	type frame struct {
		b        *suf.BoolExpr
		i        *suf.IntExpr
		expanded bool
	}
	stack := []frame{{b: f}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if fr.b != nil {
			if _, done := seenB[fr.b]; done {
				continue
			}
			n := fr.b
			l, r := n.BoolChildren()
			t1, t2 := n.Terms()
			if !fr.expanded {
				stack = append(stack, frame{b: n, expanded: true})
				switch n.Kind() {
				case suf.BNot:
					stack = append(stack, frame{b: l})
				case suf.BAnd, suf.BOr:
					stack = append(stack, frame{b: l}, frame{b: r})
				case suf.BEq, suf.BLt:
					stack = append(stack, frame{i: t1}, frame{i: t2})
				case suf.BPred:
					for _, a := range n.Args() {
						stack = append(stack, frame{i: a})
					}
				}
				continue
			}
			nd := fpNode{sym: -1}
			switch n.Kind() {
			case suf.BTrue:
				nd.tag = 't'
			case suf.BFalse:
				nd.tag = 'f'
			case suf.BNot:
				nd.tag = 'n'
				nd.kids = []int32{seenB[l]}
			case suf.BAnd:
				nd.tag = '&'
				nd.comm = true
				nd.kids = []int32{seenB[l], seenB[r]}
			case suf.BOr:
				nd.tag = '|'
				nd.comm = true
				nd.kids = []int32{seenB[l], seenB[r]}
			case suf.BEq:
				nd.tag = '='
				nd.comm = true
				nd.kids = []int32{seenI[t1], seenI[t2]}
			case suf.BLt:
				nd.tag = '<'
				nd.kids = []int32{seenI[t1], seenI[t2]}
			case suf.BPred:
				nd.tag = 'P'
				nd.sym = symIndex('P', n.PredName(), len(n.Args()))
				for _, a := range n.Args() {
					nd.kids = append(nd.kids, seenI[a])
				}
			}
			seenB[n] = add(nd)
			continue
		}

		t := fr.i
		if _, done := seenI[t]; done {
			continue
		}
		ta, tb := t.Branches()
		if !fr.expanded {
			stack = append(stack, frame{i: t, expanded: true})
			switch t.Kind() {
			case suf.IFunc:
				for _, a := range t.Args() {
					stack = append(stack, frame{i: a})
				}
			case suf.ISucc, suf.IPred:
				stack = append(stack, frame{i: ta})
			case suf.IIte:
				stack = append(stack, frame{b: t.Cond()}, frame{i: ta}, frame{i: tb})
			}
			continue
		}
		nd := fpNode{sym: -1}
		switch t.Kind() {
		case suf.IFunc:
			nd.tag = 'a'
			nd.sym = symIndex('F', t.FuncName(), len(t.Args()))
			for _, a := range t.Args() {
				nd.kids = append(nd.kids, seenI[a])
			}
		case suf.ISucc:
			nd.tag = 's'
			nd.kids = []int32{seenI[ta]}
		case suf.IPred:
			nd.tag = 'd'
			nd.kids = []int32{seenI[ta]}
		case suf.IIte:
			nd.tag = 'i'
			nd.kids = []int32{seenB[t.Cond()], seenI[ta], seenI[tb]}
		}
		seenI[t] = add(nd)
	}

	g.root = seenB[f]
	g.parents = make([][]fpParent, len(g.nodes))
	for i, n := range g.nodes {
		for role, k := range n.kids {
			r := int32(role)
			if n.comm {
				r = 0
			}
			g.parents[k] = append(g.parents[k], fpParent{node: int32(i), role: r})
		}
	}
	return g
}

// refine computes name-blind structural digests for every node, iterating
// digest computation with WL color refinement of the symbol table: a
// symbol's color absorbs the sorted multiset of its occurrence contexts
// (occurrence digest plus parent digests with roles), so symbols that play
// different roles in the formula acquire different colors even though their
// names never enter any digest. Returns the final node digests.
func (g *fpGraph) refine() []fpDigest {
	colors := make([]fpDigest, len(g.symOcc))
	for s := range colors {
		// Initial color: class and arity only. Every same-shaped symbol
		// starts identical; refinement separates them by usage.
		occ := g.symOcc[s]
		var class byte = 'F'
		arity := 0
		if len(occ) > 0 {
			n := g.nodes[occ[0]]
			if n.tag == 'P' {
				class = 'P'
			}
			arity = len(n.kids)
		}
		var seed [8]byte
		seed[0] = class
		binary.BigEndian.PutUint32(seed[1:5], uint32(arity))
		colors[s] = sha256.Sum256(seed[:])
	}

	dig := make([]fpDigest, len(g.nodes))
	var scratch [][]byte // reused sort buffer
	for round := 0; ; round++ {
		// Bottom-up digest pass. Nodes are topologically ordered, so a
		// forward scan sees every child before its parent.
		for i, n := range g.nodes {
			h := sha256.New()
			h.Write([]byte{n.tag})
			if n.sym >= 0 {
				h.Write(colors[n.sym][:])
			}
			if n.comm {
				scratch = scratch[:0]
				for _, k := range n.kids {
					scratch = append(scratch, dig[k][:])
				}
				sort.Slice(scratch, func(a, b int) bool { return bytes.Compare(scratch[a], scratch[b]) < 0 })
				for _, d := range scratch {
					h.Write(d)
				}
			} else {
				for _, k := range n.kids {
					h.Write(dig[k][:])
				}
			}
			h.Sum(dig[i][:0])
		}
		if round == refineRounds {
			return dig
		}

		// Color refinement: fold each symbol's occurrence contexts into its
		// color. Context = the occurrence's own digest (what the symbol is
		// applied to) plus each parent digest tagged with the child role
		// (where the application sits).
		next := make([]fpDigest, len(colors))
		for s, occ := range g.symOcc {
			ctxs := make([][]byte, 0, len(occ))
			for _, o := range occ {
				oh := sha256.New()
				oh.Write(dig[o][:])
				pcs := make([][]byte, 0, len(g.parents[o]))
				for _, p := range g.parents[o] {
					var rb [4]byte
					binary.BigEndian.PutUint32(rb[:], uint32(p.role))
					pd := sha256.Sum256(append(dig[p.node][:], rb[:]...))
					pcs = append(pcs, pd[:])
				}
				sort.Slice(pcs, func(a, b int) bool { return bytes.Compare(pcs[a], pcs[b]) < 0 })
				for _, pc := range pcs {
					oh.Write(pc)
				}
				ctxs = append(ctxs, oh.Sum(nil))
			}
			sort.Slice(ctxs, func(a, b int) bool { return bytes.Compare(ctxs[a], ctxs[b]) < 0 })
			h := sha256.New()
			h.Write(colors[s][:])
			for _, c := range ctxs {
				h.Write(c)
			}
			h.Sum(next[s][:0])
		}
		colors = next
	}
}

// emit serializes the graph in canonical order: an iterative post-order DFS
// from the root that visits the children of commutative nodes in digest
// order (stable on ties, which refinement has made automorphic or
// vanishingly rare), numbering nodes and symbols by first encounter. The
// serialization names nodes and symbols only by those canonical numbers.
func (g *fpGraph) emit(dig []fpDigest) []byte {
	canonID := make([]int32, len(g.nodes))
	symID := make([]int32, len(g.symOcc))
	for i := range canonID {
		canonID[i] = -1
	}
	for i := range symID {
		symID[i] = -1
	}
	nextNode, nextSym := int32(0), int32(0)
	var buf []byte

	orderedKids := func(n fpNode) []int32 {
		kids := append([]int32(nil), n.kids...)
		if n.comm {
			sort.SliceStable(kids, func(a, b int) bool {
				return bytes.Compare(dig[kids[a]][:], dig[kids[b]][:]) < 0
			})
		}
		return kids
	}

	type frame struct {
		node     int32
		expanded bool
	}
	stack := []frame{{node: g.root}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if canonID[fr.node] >= 0 {
			continue
		}
		n := g.nodes[fr.node]
		if !fr.expanded {
			stack = append(stack, frame{node: fr.node, expanded: true})
			kids := orderedKids(n)
			for i := len(kids) - 1; i >= 0; i-- {
				stack = append(stack, frame{node: kids[i]})
			}
			continue
		}
		if n.sym >= 0 && symID[n.sym] < 0 {
			symID[n.sym] = nextSym
			nextSym++
		}
		canonID[fr.node] = nextNode
		nextNode++

		buf = append(buf, n.tag)
		if n.sym >= 0 {
			buf = strconv.AppendInt(buf, int64(symID[n.sym]), 10)
		}
		if len(n.kids) > 0 {
			ids := make([]int64, len(n.kids))
			for i, k := range n.kids {
				ids[i] = int64(canonID[k])
			}
			if n.comm {
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			}
			buf = append(buf, '(')
			for i, id := range ids {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, id, 10)
			}
			buf = append(buf, ')')
		}
		buf = append(buf, ';')
	}
	return buf
}
