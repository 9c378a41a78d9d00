package perconstraint

import (
	"fmt"
	"sort"
	"strconv"

	"sufsat/internal/sep"
)

// This file keeps the string-keyed, pointer-based Fourier–Motzkin generator
// that TransSet replaced, unchanged but for the ref prefix on its two entry
// points, as the oracle TestTransSetMatchesReference compares TransSet
// against clause by clause.

// edge is a labelled difference edge x − y ≤ c under literal lit.
type edge struct {
	x, y string
	c    int
	lit  TransLit
}

func sortEdges(es []*edge) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.x != b.x {
			return a.x < b.x
		}
		if a.y != b.y {
			return a.y < b.y
		}
		return a.c < b.c
	})
}

// refTransClauseList generates the transitivity constraints for every
// predicate variable handed out so far, by per-class Fourier–Motzkin vertex
// elimination, in clausal form.
func (e *Encoder) refTransClauseList() ([]TransClause, error) {
	// Group canonical predicates by class.
	byClass := make(map[*sep.Class][]predKey)
	for _, k := range e.order {
		cl := e.info.ClassOf[k.x]
		if cl == nil || e.info.ClassOf[k.y] != cl {
			return nil, fmt.Errorf("perconstraint: predicate %v crosses classes", k)
		}
		byClass[cl] = append(byClass[cl], k)
	}
	classes := make([]*sep.Class, 0, len(byClass))
	for cl := range byClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].ID < classes[j].ID })

	var out []TransClause
	budget := e.MaxTrans
	for _, cl := range classes {
		cs, err := e.refTransForClass(cl, byClass[cl], &budget)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
	}
	return out, nil
}

func (e *Encoder) refTransForClass(cl *sep.Class, preds []predKey, budget *int) ([]TransClause, error) {
	bb := e.bb
	// Weight bound for derived edges: every edge of a *simple* negative
	// cycle is a contiguous subpath of it, and with n vertices and initial
	// weights in [−W, W] a subpath of a simple negative cycle has weight in
	// (−2nW, nW). Vertex elimination composes exactly contiguous subpaths,
	// so derived edges outside that window can never witness a negative
	// cycle and are dropped. This keeps the (still potentially exponential)
	// growth tied to genuine weight diversity.
	verts := make(map[string]bool)
	maxW := 1
	maxPos := 0
	for _, k := range preds {
		verts[k.x] = true
		verts[k.y] = true
		for _, w := range [2]int{k.c, -k.c - 1} {
			if abs(w) > maxW {
				maxW = abs(w)
			}
			if w > maxPos {
				maxPos = w
			}
		}
	}
	hiBound := len(verts) * maxW
	// Weight floor: in a simple cycle the other edges contribute at most
	// n·maxPos, so once a subpath's weight reaches F = −n·maxPos − 1 the
	// completed cycle is negative no matter what — all weights below F are
	// equivalent and are clamped to it. For equality/strict-order classes
	// (no positive weights) this collapses the per-pair weights to {0, −1},
	// which is why the per-constraint method is cheap exactly on the
	// formulas the paper observes it winning on.
	floor := -len(verts)*maxPos - 1

	// Labelled edges keyed by (x, y, c); both polarities of each source
	// predicate are present from the start.
	edges := make(map[predKey]*edge)
	adj := make(map[string]map[predKey]bool) // vertex → incident edge keys
	addEdge := func(x, y string, c int, lit TransLit) *edge {
		k := predKey{x, y, c}
		if ed, ok := edges[k]; ok {
			return ed
		}
		ed := &edge{x, y, c, lit}
		edges[k] = ed
		for _, v := range [2]string{x, y} {
			if adj[v] == nil {
				adj[v] = make(map[predKey]bool)
			}
			adj[v][k] = true
		}
		return ed
	}
	for _, k := range preds {
		v := e.vars[k]
		addEdge(k.x, k.y, k.c, TransLit{v, false})
		addEdge(k.y, k.x, -k.c-1, TransLit{v, true})
	}

	// litFor returns the consequent literal for a derived constraint
	// x − y ≤ c, reusing source variables (possibly negated) when they match
	// exactly, and fresh derived variables otherwise.
	litFor := func(x, y string, c int) TransLit {
		cx, cy, cc := x, y, c
		neg := false
		if cx > cy {
			cx, cy, cc = y, x, -c-1
			neg = true
		}
		if v, ok := e.vars[predKey{cx, cy, cc}]; ok {
			return TransLit{v, neg}
		}
		v := bb.Var("eijD!" + cx + "!" + cy + "!" + strconv.Itoa(cc))
		if _, seen := e.derivedSeen(cx, cy, cc); !seen {
			e.stats.DerivedVars++
		}
		return TransLit{v, neg}
	}

	var constraints []TransClause
	nCons := 0
	emit := func(tc TransClause) error {
		constraints = append(constraints, tc)
		nCons++
		e.stats.TransConstraints++
		if e.MaxTrans > 0 {
			*budget--
			if *budget < 0 {
				return &BudgetError{Class: cl, Limit: e.MaxTrans}
			}
		}
		if nCons%256 == 0 {
			if e.Ctx != nil {
				if err := e.Ctx.Err(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Vertex elimination in the configured order.
	for len(adj) > 0 {
		var names []string
		for name := range adj {
			names = append(names, name)
		}
		sort.Strings(names)
		v := names[0]
		switch e.Order {
		case Lexicographic:
			// v is already the lexicographically smallest.
		case MinFill:
			best := -1
			for _, name := range names {
				in, out := 0, 0
				for k := range adj[name] {
					ed := edges[k]
					if ed.y == name {
						in++
					}
					if ed.x == name {
						out++
					}
				}
				fill := in * out
				if best == -1 || fill < best {
					best = fill
					v = name
				}
			}
		default: // MinDegree
			best := -1
			for _, name := range names {
				d := len(adj[name])
				if best == -1 || d < best {
					best = d
					v = name
				}
			}
		}

		// Partition incident edges.
		var in, out []*edge // in: (x→v), out: (v→y)
		for k := range adj[v] {
			ed := edges[k]
			if ed.y == v && ed.x != v {
				in = append(in, ed)
			}
			if ed.x == v && ed.y != v {
				out = append(out, ed)
			}
		}
		sortEdges(in)
		sortEdges(out)
		// Remove v and its edges before adding compositions.
		for k := range adj[v] {
			ed := edges[k]
			delete(edges, k)
			other := ed.x
			if other == v {
				other = ed.y
			}
			if adj[other] != nil {
				delete(adj[other], k)
			}
		}
		delete(adj, v)

		for _, e1 := range in { // e1: x − v ≤ c1
			for _, e2 := range out { // e2: v − y ≤ c2
				x, y := e1.x, e2.y
				c := e1.c + e2.c
				if c < floor {
					c = floor
				}
				if e1.lit.Var == e2.lit.Var && e1.lit.Neg != e2.lit.Neg {
					continue // composing a literal with its own negation
				}
				ant := TransClause{e1.lit.Not()}
				if e1.lit != e2.lit {
					ant = append(ant, e2.lit.Not())
				}
				if x == y {
					if c < 0 {
						// Negative self-loop: the antecedent is contradictory.
						if err := emit(ant); err != nil {
							return nil, err
						}
					}
					continue
				}
				if c > hiBound {
					continue // cannot be part of a simple negative cycle
				}
				k := predKey{x, y, c}
				if ed, ok := edges[k]; ok {
					// Edge already present: just link the new derivation.
					if err := emit(append(ant[:len(ant):len(ant)], ed.lit)); err != nil {
						return nil, err
					}
					continue
				}
				l3 := litFor(x, y, c)
				addEdge(x, y, c, l3)
				if err := emit(append(ant[:len(ant):len(ant)], l3)); err != nil {
					return nil, err
				}
			}
		}
	}
	return constraints, nil
}
