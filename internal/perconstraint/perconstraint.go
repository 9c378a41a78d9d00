// Package perconstraint implements the EIJ (per-constraint) Boolean encoding
// of separation logic (§2.1.2 method 2 and §4 step 5 of the paper):
//
//   - ITEs are eliminated by enumerating each term's guarded ground leaves;
//   - every separation predicate g_i ⋈ g_j between ground terms becomes a
//     single fresh Boolean variable e^{≤,c}_{x,y} for the canonical
//     difference constraint x − y ≤ c (equalities become conjunctions of two
//     such variables, strict inequalities re-use the negation of the
//     opposite variable);
//   - transitivity constraints F_trans are generated eagerly by
//     Fourier–Motzkin vertex elimination over the literal-labelled
//     difference graph, which is sound and complete for difference
//     constraints: a Boolean assignment corresponds to an integer assignment
//     iff the labelled edge graph it induces has no negative cycle, and
//     vertex elimination preserves negative cycles as derived negative
//     self-loops.
//
// The final Boolean formula is F_trans ⟹ F_bvar. The potentially
// exponential growth of F_trans is the EIJ weakness the paper's hybrid
// method works around; Encoder supports a constraint cap so harnesses can
// observe the blow-up as a translation timeout, like the paper's 1-hour
// limit.
package perconstraint

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"sufsat/internal/boolexpr"
	"sufsat/internal/difflogic"
	"sufsat/internal/enc"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// ErrTranslationLimit reports that transitivity-constraint generation
// exceeded the configured cap (the EIJ blow-up).
var ErrTranslationLimit = errors.New("perconstraint: transitivity constraint limit exceeded")

// BudgetError reports which class's transitivity generation exhausted the
// MaxTrans cap, so a hybrid caller can degrade that class to the SD encoder
// and retry instead of failing the whole call. It unwraps to
// ErrTranslationLimit.
type BudgetError struct {
	// Class is the symbolic-constant class being eliminated when the shared
	// budget ran out.
	Class *sep.Class
	// Limit is the configured MaxTrans cap.
	Limit int
}

func (e *BudgetError) Error() string {
	id := -1
	if e.Class != nil {
		id = e.Class.ID
	}
	return fmt.Sprintf("perconstraint: transitivity budget (%d) exhausted eliminating class %d", e.Limit, id)
}

func (e *BudgetError) Unwrap() error { return ErrTranslationLimit }

// Stats reports encoding-size counters.
type Stats struct {
	// PredVars is the number of source separation-predicate variables.
	PredVars int
	// DerivedVars is the number of fresh variables introduced for derived
	// constraints during transitivity generation.
	DerivedVars int
	// TransConstraints is the number of transitivity constraints in F_trans.
	TransConstraints int
}

type predKey struct {
	x, y string
	c    int
}

// Encoder encodes separation atoms per-constraint. Atom encodings are
// collected; EachTransClause (or TransSet and its adapter TransClauseList,
// which collect its stream) must be called afterwards
// to obtain F_trans for every predicate variable handed out.
type Encoder struct {
	bb   *boolexpr.Builder
	sb   *suf.Builder
	info *sep.Info
	// MaxTrans caps the number of generated transitivity constraints
	// (0 = unlimited).
	MaxTrans int
	// Ctx, when non-nil, is polled during atom encoding and transitivity
	// generation; once done, both abort with the context's error.
	Ctx context.Context
	// Order selects the vertex-elimination heuristic (default MinDegree).
	Order OrderHeuristic

	walker    *enc.Walker
	vars      map[predKey]*boolexpr.Node // canonical source predicate variables
	order     []predKey                  // deterministic iteration order
	derived   map[predKey]bool           // derived variables allocated so far
	stats     Stats
	atomCalls int // EncodeAtom invocations, gating context polls
}

// NewEncoder builds a per-constraint encoder for the analyzed formula info.
func NewEncoder(info *sep.Info, sb *suf.Builder, bb *boolexpr.Builder) *Encoder {
	e := &Encoder{bb: bb, sb: sb, info: info, vars: make(map[predKey]*boolexpr.Node)}
	e.walker = enc.NewWalker(bb, e.EncodeAtom)
	return e
}

// Walker returns the formula walker bound to this encoder (for standalone
// EIJ encoding). Hybrid encoders install their own dispatching walker via
// SetWalker.
func (e *Encoder) Walker() *enc.Walker { return e.walker }

// SetWalker replaces the walker used to encode ITE guard conditions, so a
// hybrid encoder can route guard atoms through its own dispatcher.
func (e *Encoder) SetWalker(w *enc.Walker) { e.walker = w }

// Stats returns the current counters (DerivedVars and TransConstraints are
// populated by transitivity generation, EachTransClause and its collectors).
func (e *Encoder) Stats() Stats { return e.stats }

// Lit returns the literal encoding the difference constraint x − y ≤ c,
// allocating the canonical predicate variable on first use. x and y must be
// distinct general constants of the same class.
func (e *Encoder) Lit(x, y string, c int) *boolexpr.Node {
	if x > y {
		// x−y ≤ c  ⟺  ¬(y−x ≤ −c−1)
		return e.bb.Not(e.Lit(y, x, -c-1))
	}
	k := predKey{x, y, c}
	if v, ok := e.vars[k]; ok {
		return v
	}
	v := e.bb.Var("eij!" + x + "!" + y + "!" + strconv.Itoa(c))
	e.vars[k] = v
	e.order = append(e.order, k)
	e.stats.PredVars++
	return v
}

// PredVar describes one canonical separation-predicate variable: Var is
// true iff X − Y ≤ C.
type PredVar struct {
	X, Y string
	C    int
	Var  *boolexpr.Node
}

// Predicates returns the canonical predicate variables allocated so far, in
// allocation order. The lazy baseline uses this as its Boolean abstraction.
func (e *Encoder) Predicates() []PredVar {
	out := make([]PredVar, len(e.order))
	for i, k := range e.order {
		out[i] = PredVar{X: k.x, Y: k.y, C: k.c, Var: e.vars[k]}
	}
	return out
}

// EncodeAtom encodes an equality or inequality atom: the guarded ground
// leaves of both terms are enumerated and each ground pair contributes a
// guarded predicate literal (§4 step 5).
func (e *Encoder) EncodeAtom(a *suf.BoolExpr) (*boolexpr.Node, error) {
	e.atomCalls++
	if e.Ctx != nil && e.atomCalls&63 == 0 {
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	t1, t2 := a.Terms()
	g1 := sep.GuardedLeaves(t1, e.sb)
	g2 := sep.GuardedLeaves(t2, e.sb)
	out := e.bb.False()
	for _, l1 := range g1 {
		c1, err := e.walker.Encode(l1.Cond)
		if err != nil {
			return nil, err
		}
		for _, l2 := range g2 {
			c2, err := e.walker.Encode(l2.Cond)
			if err != nil {
				return nil, err
			}
			var p *boolexpr.Node
			if a.Kind() == suf.BEq {
				p, err = e.groundEq(l1.G, l2.G)
			} else {
				p, err = e.groundLt(l1.G, l2.G)
			}
			if err != nil {
				return nil, err
			}
			out = e.bb.Or(out, e.bb.AndN(c1, c2, p))
		}
	}
	return out, nil
}

func (e *Encoder) groundEq(g1, g2 sep.Ground) (*boolexpr.Node, error) {
	if g1.Var == g2.Var {
		return e.bb.Const(g1.Off == g2.Off), nil
	}
	// Maximal diversity: a predicate touching a V_p constant is false unless
	// syntactically identical (§4 step 5).
	if e.info.PConsts[g1.Var] || e.info.PConsts[g2.Var] {
		return e.bb.False(), nil
	}
	// g1.Var + g1.Off = g2.Var + g2.Off
	//   ⟺ x − y ≤ (o2−o1)  ∧  y − x ≤ (o1−o2)
	d := g2.Off - g1.Off
	return e.bb.And(e.Lit(g1.Var, g2.Var, d), e.Lit(g2.Var, g1.Var, -d)), nil
}

func (e *Encoder) groundLt(g1, g2 sep.Ground) (*boolexpr.Node, error) {
	if g1.Var == g2.Var {
		return e.bb.Const(g1.Off < g2.Off), nil
	}
	if e.info.PConsts[g1.Var] || e.info.PConsts[g2.Var] {
		// Positive-equality classification keeps V_p constants out of
		// inequalities; reaching this would be an analysis bug upstream.
		return nil, fmt.Errorf("perconstraint: V_p constant under < (%v < %v)", g1, g2)
	}
	// x + o1 < y + o2 ⟺ x − y ≤ o2 − o1 − 1
	return e.Lit(g1.Var, g2.Var, g2.Off-g1.Off-1), nil
}

// TransLit is a literal over a predicate variable node (source or derived).
type TransLit struct {
	Var *boolexpr.Node
	Neg bool
}

// Not returns the complement literal.
func (l TransLit) Not() TransLit { return TransLit{l.Var, !l.Neg} }

// TransClause is one transitivity constraint in clausal form — a disjunction
// of predicate-variable literals (2 literals for a negative self-loop
// ¬l1 ∨ ¬l2, 3 for an implication ¬l1 ∨ ¬l2 ∨ l3). It is the pointer-based
// view of one TransSet clause, kept for callers that walk nodes.
type TransClause []TransLit

// OrderHeuristic selects the Fourier–Motzkin vertex-elimination order,
// which determines the fill-in and hence the size of F_trans.
type OrderHeuristic int

// Elimination-order heuristics.
const (
	// MinDegree eliminates the vertex with the fewest incident edges first
	// (recomputed dynamically) — the default, and the classical low-fill
	// heuristic.
	MinDegree OrderHeuristic = iota
	// MinFill estimates the number of new edges each elimination would
	// create (in·out products over distinct neighbours) and picks the
	// smallest — more expensive per step, often less fill on dense graphs.
	MinFill
	// Lexicographic eliminates vertices in name order — the ablation
	// baseline showing how much the ordering heuristics buy.
	Lexicographic
)

func (o OrderHeuristic) String() string {
	switch o {
	case MinDegree:
		return "min-degree"
	case MinFill:
		return "min-fill"
	case Lexicographic:
		return "lexicographic"
	}
	return "unknown"
}

// TransSet is F_trans in flat, pointer-free clausal form. A literal is the
// code v<<1 | neg over the variable table Vars; clause i is the codes
// Lits[Ends[i-1]:Ends[i]] (from 0 for the first clause). It is
// EachTransClause's stream collected into three flat arrays, for callers
// that need F_trans as a whole; the decide path asserts the stream instead
// and never holds it.
type TransSet struct {
	// Vars holds one node per predicate variable, source or derived, a code
	// may name.
	Vars []*boolexpr.Node
	// Lits holds the literal codes of all clauses, back to back.
	Lits []int32
	// Ends holds the end offset in Lits of each clause.
	Ends []int32
}

// Len returns the number of clauses.
func (t *TransSet) Len() int { return len(t.Ends) }

// Clause returns the literal codes of clause i.
func (t *TransSet) Clause(i int) []int32 {
	lo := int32(0)
	if i > 0 {
		lo = t.Ends[i-1]
	}
	return t.Lits[lo:t.Ends[i]]
}

// Lit decodes a literal code.
func (t *TransSet) Lit(code int32) TransLit {
	return TransLit{Var: t.Vars[code>>1], Neg: code&1 == 1}
}

// TransClauseList is TransSet with every clause decoded to a TransClause.
func (e *Encoder) TransClauseList() ([]TransClause, error) {
	ts, err := e.TransSet()
	if err != nil || ts.Len() == 0 {
		return nil, err
	}
	lits := make([]TransLit, len(ts.Lits))
	for i, code := range ts.Lits {
		lits[i] = ts.Lit(code)
	}
	out := make([]TransClause, ts.Len())
	lo := int32(0)
	for i, hi := range ts.Ends {
		out[i] = lits[lo:hi:hi]
		lo = hi
	}
	return out, nil
}

// TransSet collects EachTransClause's stream.
func (e *Encoder) TransSet() (*TransSet, error) {
	ts := &TransSet{}
	err := e.EachTransClause(func(lits []int32, vars []*boolexpr.Node) error {
		if len(ts.Lits)+len(lits) > math.MaxInt32 {
			return fmt.Errorf("%w: more than %d literals", ErrTranslationLimit, math.MaxInt32)
		}
		ts.Vars = vars
		ts.Lits = append(reserve(ts.Lits, len(lits)), lits...)
		ts.Ends = append(reserve(ts.Ends, 1), int32(len(ts.Lits)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// EachTransClause generates the transitivity constraints for every predicate
// variable handed out so far, by per-class Fourier–Motzkin vertex
// elimination, and calls fn with each clause as it is emitted. lits holds
// the clause's literal codes v<<1 | neg over vars, the variable table so
// far: the source variables in allocation order, then each derived variable,
// created in bb at its first use. Both slices are valid only during the
// call. A non-nil error from fn aborts the generation and is returned.
func (e *Encoder) EachTransClause(fn func(lits []int32, vars []*boolexpr.Node) error) error {
	vars := make([]*boolexpr.Node, len(e.order))
	// Group canonical predicates by class; a source variable's index in
	// vars is its allocation index.
	byClass := make(map[*sep.Class][]int32)
	for i, k := range e.order {
		cl := e.info.ClassOf[k.x]
		if cl == nil || e.info.ClassOf[k.y] != cl {
			return fmt.Errorf("perconstraint: predicate %v crosses classes", k)
		}
		vars[i] = e.vars[k]
		byClass[cl] = append(byClass[cl], int32(i))
	}
	classes := make([]*sep.Class, 0, len(byClass))
	for cl := range byClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].ID < classes[j].ID })

	g := transGen{e: e, fn: fn, vars: vars, budget: e.MaxTrans, ids: make(map[string]int32)}
	for _, cl := range classes {
		if err := g.class(cl, byClass[cl]); err != nil {
			return err
		}
	}
	return nil
}

// transEdge is a labelled difference edge x − y ≤ c under literal code lit,
// threaded onto the incidence lists of both endpoints.
type transEdge struct {
	x, y         int32
	c            int
	lit          int32
	nextX, nextY int32 // next edge incident to x / to y; -1 ends the list
}

// arc is an edge seen from the vertex being eliminated: u is its other
// endpoint.
type arc struct {
	u   int32
	c   int
	lit int32
}

func cmpArc(a, b arc) int {
	if a.u != b.u {
		return cmp.Compare(a.u, b.u)
	}
	return cmp.Compare(a.c, b.c)
}

// transGen is the state of one EachTransClause call. Its slices and its
// edge index are reused from class to class, so elimination allocates only
// as they grow.
type transGen struct {
	e      *Encoder
	fn     func(lits []int32, vars []*boolexpr.Node) error
	vars   []*boolexpr.Node // variable table: source variables, then derived ones
	cl     *sep.Class
	budget int // remaining MaxTrans allowance, shared by all classes
	nCons  int // clauses emitted for the current class

	// Vertices of the current class: dense IDs assigned in name order, so
	// every comparison the elimination makes on IDs agrees with the one it
	// would make on names.
	names         []string
	ids           map[string]int32
	head          []int32 // first incident edge of each vertex; -1 if none
	indeg, outdeg []int   // live incident edges ending / starting at a vertex
	gone          []bool  // vertex already eliminated
	alive         []int32 // vertices not yet eliminated, ascending

	edges  []transEdge
	idx    edgeIndex // edges and canonical variables of the class by (x, y, c)
	in     []arc
	out    []arc
	clause []int32
	name   []byte
}

func (g *transGen) class(cl *sep.Class, preds []int32) error {
	e := g.e
	g.cl, g.nCons = cl, 0
	g.names = g.names[:0]
	clear(g.ids)
	for _, pi := range preds {
		k := e.order[pi]
		for _, v := range [2]string{k.x, k.y} {
			if _, ok := g.ids[v]; !ok {
				g.ids[v] = 0
				g.names = append(g.names, v)
			}
		}
	}
	sort.Strings(g.names)
	n := len(g.names)
	g.head, g.indeg, g.outdeg, g.gone, g.alive = g.head[:0], g.indeg[:0], g.outdeg[:0], g.gone[:0], g.alive[:0]
	for i, v := range g.names {
		g.ids[v] = int32(i)
		g.head = append(g.head, -1)
		g.indeg = append(g.indeg, 0)
		g.outdeg = append(g.outdeg, 0)
		g.gone = append(g.gone, false)
		g.alive = append(g.alive, int32(i))
	}
	g.edges = g.edges[:0]
	g.idx.reset()

	// Weight bound for derived edges: every edge of a *simple* negative
	// cycle is a contiguous subpath of it, and with n vertices and initial
	// weights in [−W, W] a subpath of a simple negative cycle has weight in
	// (−2nW, nW). Vertex elimination composes exactly contiguous subpaths,
	// so derived edges outside that window can never witness a negative
	// cycle and are dropped. This keeps the (still potentially exponential)
	// growth tied to genuine weight diversity.
	maxW := 1
	maxPos := 0
	for _, pi := range preds {
		k := e.order[pi]
		for _, w := range [2]int{k.c, -k.c - 1} {
			if abs(w) > maxW {
				maxW = abs(w)
			}
			if w > maxPos {
				maxPos = w
			}
		}
	}
	hiBound := n * maxW
	// Weight floor: in a simple cycle the other edges contribute at most
	// n·maxPos, so once a subpath's weight reaches F = −n·maxPos − 1 the
	// completed cycle is negative no matter what — all weights below F are
	// equivalent and are clamped to it. For equality/strict-order classes
	// (no positive weights) this collapses the per-pair weights to {0, −1},
	// which is why the per-constraint method is cheap exactly on the
	// formulas the paper observes it winning on.
	floor := -n*maxPos - 1

	// Both polarities of each source predicate are edges from the start.
	for _, pi := range preds {
		k := e.order[pi]
		x, y := g.ids[k.x], g.ids[k.y]
		g.idx.entry(x, y, k.c).pvar = pi
		g.addEdge(x, y, k.c, pi<<1)
		g.addEdge(y, x, -k.c-1, pi<<1|1)
	}

	// Vertex elimination in the configured order.
	for len(g.alive) > 0 {
		at := g.pick()
		v := g.alive[at]
		g.alive = append(g.alive[:at], g.alive[at+1:]...)

		// Partition v's live edges into in (x→v) and out (v→y), and remove
		// them: an edge whose other endpoint is gone died with it.
		in, out := g.in[:0], g.out[:0]
		for ei := g.head[v]; ei >= 0; {
			ed := &g.edges[ei]
			if ed.x == v {
				ei = ed.nextX
				if !g.gone[ed.y] {
					out = append(out, arc{ed.y, ed.c, ed.lit})
					g.indeg[ed.y]--
				}
			} else {
				ei = ed.nextY
				if !g.gone[ed.x] {
					in = append(in, arc{ed.x, ed.c, ed.lit})
					g.outdeg[ed.x]--
				}
			}
		}
		g.gone[v] = true
		slices.SortFunc(in, cmpArc)
		slices.SortFunc(out, cmpArc)
		g.in, g.out = in, out

		for _, a := range in { // a: x − v ≤ a.c
			for _, b := range out { // b: v − y ≤ b.c
				x, y := a.u, b.u
				c := max(a.c+b.c, floor)
				if a.lit^b.lit == 1 {
					continue // composing a literal with its own negation
				}
				cl := append(g.clause[:0], a.lit^1)
				if a.lit != b.lit {
					cl = append(cl, b.lit^1)
				}
				switch {
				case x == y:
					if c >= 0 {
						continue
					}
					// Negative self-loop: the antecedent is contradictory.
				case c > hiBound:
					continue // cannot be part of a simple negative cycle
				default:
					if en := g.idx.get(x, y, c); en != nil && en.lit >= 0 {
						// Edge already present: just link the new derivation.
						cl = append(cl, en.lit)
						break
					}
					l3 := g.litFor(x, y, c)
					g.addEdge(x, y, c, l3)
					cl = append(cl, l3)
				}
				g.clause = cl
				if err := g.emit(cl); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reserve returns s with room for n more elements. When it must grow it
// doubles the capacity, where append grows a large slice by only 1.25×:
// F_trans runs to tens of megabytes, and every growth copies it into freshly
// allocated pages.
func reserve(s []int32, n int) []int32 {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]int32, len(s), max(2*cap(s), len(s)+n))
	copy(out, s)
	return out
}

// pick returns the position in alive of the next vertex to eliminate: the
// heuristic's minimum, ties going to the smallest name.
func (g *transGen) pick() int {
	if g.e.Order == Lexicographic {
		return 0
	}
	best, at := -1, 0
	for i, v := range g.alive {
		score := g.indeg[v] + g.outdeg[v] // MinDegree
		if g.e.Order == MinFill {
			score = g.indeg[v] * g.outdeg[v]
		}
		if best == -1 || score < best {
			best, at = score, i
		}
	}
	return at
}

// addEdge adds x − y ≤ c under lit unless that edge already exists. Edges
// of eliminated vertices stay in the index harmlessly: no later derivation
// can reach them.
func (g *transGen) addEdge(x, y int32, c int, lit int32) {
	en := g.idx.entry(x, y, c)
	if en.lit >= 0 {
		return
	}
	en.lit = lit
	ei := int32(len(g.edges))
	g.edges = append(g.edges, transEdge{x: x, y: y, c: c, lit: lit, nextX: g.head[x], nextY: g.head[y]})
	g.head[x], g.head[y] = ei, ei
	g.outdeg[x]++
	g.indeg[y]++
}

// litFor returns the consequent literal for a derived constraint
// x − y ≤ c, reusing source variables (possibly negated) when they match
// exactly, and fresh derived variables otherwise.
func (g *transGen) litFor(x, y int32, c int) int32 {
	cx, cy, cc := x, y, c
	neg := int32(0)
	if cx > cy {
		cx, cy, cc = y, x, -c-1
		neg = 1
	}
	en := g.idx.entry(cx, cy, cc)
	if en.pvar >= 0 {
		return en.pvar<<1 | neg
	}
	nx, ny := g.names[cx], g.names[cy]
	b := append(g.name[:0], "eijD!"...)
	b = append(append(b, nx...), '!')
	b = append(append(b, ny...), '!')
	g.name = strconv.AppendInt(b, int64(cc), 10)
	v := int32(len(g.vars))
	g.vars = append(g.vars, g.e.bb.Var(string(g.name)))
	if _, seen := g.e.derivedSeen(nx, ny, cc); !seen {
		g.e.stats.DerivedVars++
	}
	en.pvar = v
	return v<<1 | neg
}

// emit charges the clause lits to the budget, hands it to the caller and
// polls for cancellation every 256 clauses of a class.
func (g *transGen) emit(lits []int32) error {
	e := g.e
	g.nCons++
	e.stats.TransConstraints++
	if e.MaxTrans > 0 {
		g.budget--
		if g.budget < 0 {
			return &BudgetError{Class: g.cl, Limit: e.MaxTrans}
		}
	}
	if err := g.fn(lits, g.vars); err != nil {
		return err
	}
	if g.nCons%256 == 0 && e.Ctx != nil {
		return e.Ctx.Err()
	}
	return nil
}

// edgeIndex maps the difference constraint x − y ≤ c between vertices of
// the class being eliminated to the literal of its edge and to the variable
// of its canonical predicate (x < y). It is an open-addressing table with
// linear probing over a power-of-two slot array, kept from class to class:
// reset empties only the slots the last class filled, so a small class
// after a large one pays for its own entries, not for the table's capacity.
type edgeIndex struct {
	slots []edgeEntry // x < 0 marks an empty slot
	used  []int32     // positions of the filled slots
	shift uint        // 64 − log2(len(slots))
}

// edgeEntry is one slot of an edgeIndex.
type edgeEntry struct {
	x, y int32
	c    int
	lit  int32 // literal code of the edge x − y ≤ c; -1 if there is none
	pvar int32 // variable index of the canonical predicate x − y ≤ c; -1 if there is none
}

// find returns the slot of (x, y, c), or the empty slot where it belongs.
func (t *edgeIndex) find(x, y int32, c int) (int, bool) {
	h := (uint64(uint32(x))<<32 | uint64(uint32(y))) ^ uint64(c)*0xc2b2ae3d27d4eb4f
	mask := len(t.slots) - 1
	for i := int((h * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.x < 0 {
			return i, false
		}
		if s.x == x && s.y == y && s.c == c {
			return i, true
		}
	}
}

// get returns the entry of x − y ≤ c, or nil if there is none.
func (t *edgeIndex) get(x, y int32, c int) *edgeEntry {
	if len(t.slots) == 0 {
		return nil
	}
	if i, ok := t.find(x, y, c); ok {
		return &t.slots[i]
	}
	return nil
}

// entry returns the entry of x − y ≤ c, adding one with neither an edge nor
// a variable if there is none. The pointer is valid until the next entry
// call.
func (t *edgeIndex) entry(x, y int32, c int) *edgeEntry {
	if 2*(len(t.used)+1) > len(t.slots) {
		t.grow()
	}
	i, ok := t.find(x, y, c)
	if !ok {
		t.slots[i] = edgeEntry{x: x, y: y, c: c, lit: -1, pvar: -1}
		t.used = append(t.used, int32(i))
	}
	return &t.slots[i]
}

// reset empties the slots in use.
func (t *edgeIndex) reset() {
	for _, i := range t.used {
		t.slots[i].x = -1
	}
	t.used = t.used[:0]
}

// grow doubles the slot array and re-inserts the entries in use.
func (t *edgeIndex) grow() {
	old := t.slots
	n := max(2*len(old), 256)
	t.slots = make([]edgeEntry, n)
	for i := range t.slots {
		t.slots[i].x = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	used := t.used
	t.used = t.used[:0]
	for _, p := range used {
		i, _ := t.find(old[p].x, old[p].y, old[p].c)
		t.slots[i] = old[p]
		t.used = append(t.used, int32(i))
	}
}

// derivedSeen tracks distinct derived variables for stats.
func (e *Encoder) derivedSeen(x, y string, c int) (struct{}, bool) {
	if e.derived == nil {
		e.derived = make(map[predKey]bool)
	}
	k := predKey{x, y, c}
	if e.derived[k] {
		return struct{}{}, true
	}
	e.derived[k] = true
	return struct{}{}, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ModelConstraints converts a Boolean assignment of the source predicate
// variables into the difference constraints it asserts: variable true means
// X − Y ≤ C, false means Y − X ≤ −C−1. Variables val reports unknown are
// skipped (they were folded out of the CNF and are unconstrained).
// F_trans guarantees the returned set is feasible for any model of the
// encoding, so a difflogic run over it reconstructs integer values.
func (e *Encoder) ModelConstraints(val func(n *boolexpr.Node) (value, known bool)) []difflogic.Constraint {
	var out []difflogic.Constraint
	for _, k := range e.order {
		v, known := val(e.vars[k])
		if !known {
			continue
		}
		if v {
			out = append(out, difflogic.Constraint{X: k.x, Y: k.y, C: int64(k.c)})
		} else {
			out = append(out, difflogic.Constraint{X: k.y, Y: k.x, C: int64(-k.c - 1)})
		}
	}
	return out
}
