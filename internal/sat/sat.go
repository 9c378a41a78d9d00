// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in the style of zChaff/MiniSat: two-literal watching,
// first-UIP conflict analysis with clause minimization, VSIDS variable
// activities, phase saving, Luby restarts and activity-based learnt-clause
// database reduction.
//
// Clauses live in a flat arena ([]Lit) addressed by ClauseRef offsets rather
// than individual heap allocations: watchers, reasons and the learnt database
// are int32 references, so propagation walks contiguous memory and cloning a
// solver for the parallel portfolio (SolveParallel) is a handful of copy
// calls.
//
// It is the substrate standing in for the zChaff solver used in the paper's
// experiments. The solver exposes the statistics the paper reports
// (CNF clause counts, conflict-clause counts, decisions, propagations).
package sat

import (
	"context"
	"errors"

	"sufsat/internal/obs"
)

// Var is a 0-based variable index.
type Var = int

// Lit is a literal: variable v with sign. The encoding is v<<1 for the
// positive literal and v<<1|1 for the negation, following MiniSat.
type Lit int32

// LitUndef is the distinguished undefined literal.
const LitUndef Lit = -1

// MkLit builds a literal from a variable and a sign (neg=true means ¬v).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether l is a negative literal.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a lifted Boolean: true, false or undefined.
type lbool int8

const (
	lTrue  lbool = 1
	lFalse lbool = -1
	lUndef lbool = 0
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver gave up (budget or deadline exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats collects solver counters. ConflictClauses is the number of learnt
// (conflict) clauses ever added — the quantity reported in the paper's
// Figure 2 — and Clauses is the number of problem (CNF) clauses.
type Stats struct {
	Vars            int
	Clauses         int
	ConflictClauses int64
	Decisions       int64
	Propagations    int64
	Conflicts       int64
	Restarts        int64
	// ReduceDBs counts learnt-database reductions; ArenaGCs counts clause
	// arena compactions. Both are maintenance events the telemetry layer
	// tracks per worker.
	ReduceDBs int64
	ArenaGCs  int64
}

// ErrBudget is returned by Solve via Unknown when the conflict budget or the
// deadline was exhausted.
var ErrBudget = errors.New("sat: budget exhausted")

// StopCause explains why the last Solve call returned Unknown.
type StopCause int

// Stop causes.
const (
	// StopNone: the last Solve returned a definitive Sat/Unsat.
	StopNone StopCause = iota
	// StopConflictBudget: ConflictBudget was exhausted.
	StopConflictBudget
	// StopDeadline: the context's deadline passed.
	StopDeadline
	// StopCanceled: the context was canceled.
	StopCanceled
)

func (c StopCause) String() string {
	switch c {
	case StopNone:
		return "none"
	case StopConflictBudget:
		return "conflict-budget"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	}
	return "unknown"
}

// watcher is one entry of a literal's watch list. Satisfied blockers skip the
// clause without touching its literals; cref addresses the clause arena.
type watcher struct {
	cref    ClauseRef
	blocker Lit
}

// varData records why and where a variable was assigned.
type varData struct {
	reason ClauseRef
	level  int32
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// Clauses may be added between Solve calls (incremental use); learnt clauses
// are retained across calls. A Solver is not safe for concurrent use; for
// parallel solving see SolveParallel, which runs diversified copies.
type Solver struct {
	ca      clauseArena
	clauses []ClauseRef
	learnts []ClauseRef
	watches [][]watcher // indexed by Lit

	assigns  []lbool // indexed by Var
	vardata  []varData
	polarity []bool // saved phase, true = last value was false (MiniSat style: sign to pick)
	activity []float64
	seen     []byte

	order heap // decision order, max-activity

	trail    []Lit
	trailLim []int
	qhead    int

	varInc    float64
	varDecay  float64
	claInc    float64
	claDecay  float64
	unsatFlag bool

	// Incremental interface: assumptions hold the literals the current
	// SolveAssume call decides first (MiniSat solve(assumps) style), each on
	// its own pseudo-decision level below all free decisions. assumpFailed
	// records that the last Unsat was conditional on them — the clause
	// database itself stayed satisfiable, so the solver remains usable.
	assumptions  []Lit
	assumpFailed bool

	// Diversification knobs (see diversify): restart geometry and an
	// occasional-random-decision rate. Zero rndFreq means fully deterministic
	// VSIDS decisions.
	restartBase float64 // Luby base factor (default 2)
	restartUnit int     // conflicts per Luby unit (default 100)
	rndFreq     float64 // probability of a random branch decision
	rndState    uint64  // xorshift64* state; 0 disables random decisions

	maxLearnts       float64
	learntAdjustCnt  int64
	learntAdjustIncr float64

	stats Stats

	addBuf []Lit // AddClause's simplification scratch

	// Clause exchange (parallel workers only; nil otherwise).
	ex       *exchange
	exID     int32
	exCursor uint64
	exOut    [][]Lit
	exported int64
	imported int64

	// Budget controls.
	ConflictBudget int64 // ≤0 means unlimited
	// Ctx, when non-nil, is polled during search; once done, Solve returns
	// Unknown with StopCanceled, or StopDeadline when its deadline passed,
	// within a bounded number of search steps.
	Ctx context.Context
	// Probes, when non-nil, receives lock-free per-worker progress slots:
	// Solve registers one probe (ID 0) and SolveParallel one per worker,
	// published at the existing poll cadence (never inside the propagation
	// loop). A nil Probes costs one untaken branch per poll.
	Probes *obs.ProbeSet

	probe    *obs.WorkerProbe
	stop     StopCause
	model    []bool
	parStats ParallelStats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:      1,
		varDecay:    0.95,
		claInc:      1,
		claDecay:    0.999,
		restartBase: 2,
		restartUnit: 100,
	}
	s.order.act = &s.activity
	return s
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.vardata = append(s.vardata, varData{reason: CRefUndef})
	s.polarity = append(s.polarity, true)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	s.stats.Vars = len(s.assigns)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -v
	}
	return v
}

func (s *Solver) level(v Var) int { return int(s.vardata[v].level) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the solver is already
// known to be unsatisfiable (e.g. an empty clause was added).
// AddClause must be called at decision level 0; Solve backtracks to level 0
// on return, so interleaving AddClause and Solve is safe.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatFlag {
		return false
	}
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	// Sort-free simplification into the reused scratch slice: drop
	// duplicate and false literals, detect tautologies and satisfied clauses.
	if cap(s.addBuf) < len(lits) {
		s.addBuf = make([]Lit, 0, len(lits))
	}
	out := s.addBuf[:0]
outer:
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop
		}
		for _, m := range out {
			if m == l {
				continue outer
			}
			if m == l.Not() {
				return true // tautology
			}
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsatFlag = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		if s.propagate() != CRefUndef {
			s.unsatFlag = true
			return false
		}
		return true
	}
	r := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, r)
	s.stats.Clauses = len(s.clauses)
	s.attach(r)
	return true
}

func (s *Solver) attach(r ClauseRef) {
	lits := s.ca.lits(r)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{r, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{r, l0})
}

func (s *Solver) detach(r ClauseRef) {
	lits := s.ca.lits(r)
	s.removeWatch(lits[0].Not(), r)
	s.removeWatch(lits[1].Not(), r)
}

func (s *Solver) removeWatch(l Lit, r ClauseRef) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref == r {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) uncheckedEnqueue(l Lit, from ClauseRef) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Neg())
	s.vardata[v] = varData{reason: from, level: int32(s.decisionLevel())}
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// CRefUndef.
func (s *Solver) propagate() ClauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			r := w.cref
			lits := s.ca.lits(r)
			// Make sure the false literal (¬p) is at position 1.
			np := p.Not()
			if lits[0] == np {
				lits[0], lits[1] = lits[1], np
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{r, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].Not()
					s.watches[nl] = append(s.watches[nl], watcher{r, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{r, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers back and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return r
			}
			s.uncheckedEnqueue(first, r)
		}
		s.watches[p] = ws[:n]
	}
	return CRefUndef
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.polarity[v] = s.trail[i].Neg()
		if !s.order.inHeap(v) {
			s.order.insert(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v)
	}
}

func (s *Solver) claBump(r ClauseRef) {
	a := s.ca.act(r) + float32(s.claInc)
	s.ca.setAct(r, a)
	if a > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setAct(lr, s.ca.act(lr)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis and returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl ClauseRef) ([]Lit, int) {
	learnt := make([]Lit, 1, 8) // learnt[0] reserved for the asserting literal
	toClear := make([]Var, 0, 16)
	pathC := 0
	var p Lit = LitUndef
	idx := len(s.trail) - 1

	for {
		s.claBump(confl)
		clits := s.ca.lits(confl)
		start := 0
		if p != LitUndef {
			start = 1
		}
		for _, q := range clits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level(v) > 0 {
				s.varBump(v)
				s.seen[v] = 1
				toClear = append(toClear, v)
				if s.level(v) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal to look at.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.vardata[p.Var()].reason
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization (basic self-subsumption): a literal is
	// redundant if it was implied by literals already in the clause.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.vardata[v].reason
		if r == CRefUndef {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.ca.lits(r) {
			if q.Var() == v {
				continue
			}
			if s.seen[q.Var()] == 0 && s.level(q.Var()) > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Find backtrack level: the maximum level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level(learnt[i].Var()) > s.level(learnt[maxI].Var()) {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level(learnt[1].Var())
	}

	for _, v := range toClear {
		s.seen[v] = 0
	}
	return learnt, btLevel
}

// nextRand steps the xorshift64* generator.
func (s *Solver) nextRand() uint64 {
	x := s.rndState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rndState = x
	return x * 0x2545F4914F6CDD1D
}

func (s *Solver) pickBranchLit() Lit {
	// Occasional random decisions (diversified parallel workers only): pick a
	// random heap entry, which is biased toward high activity but explores.
	if s.rndFreq > 0 && s.rndState != 0 &&
		float64(s.nextRand()>>11)/(1<<53) < s.rndFreq && !s.order.empty() {
		v := s.order.heap[int(s.nextRand()%uint64(len(s.order.heap)))]
		if s.assigns[v] == lUndef {
			return MkLit(v, s.polarity[v])
		}
	}
	for !s.order.empty() {
		v := s.order.removeMin()
		if s.assigns[v] == lUndef {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// publishProgress stores the solver's cumulative counters into its progress
// probe (no-op without one). Called at poll boundaries only, so the cost in
// the hot path is the nil check.
func (s *Solver) publishProgress() {
	if s.probe == nil {
		return
	}
	s.probe.Publish(obs.ProbeCounters{
		Conflicts:    s.stats.Conflicts,
		Decisions:    s.stats.Decisions,
		Propagations: s.stats.Propagations,
		Restarts:     s.stats.Restarts,
		LearntDB:     int64(len(s.learnts)),
		Imported:     s.imported,
		Exported:     s.exported,
		ReduceDBs:    s.stats.ReduceDBs,
		ArenaGCs:     s.stats.ArenaGCs,
	})
}

func (s *Solver) reduceDB() {
	s.stats.ReduceDBs++
	// Sort learnts by activity ascending (simple insertion into buckets is
	// overkill; use an O(n log n) sort inline).
	ls := s.learnts
	s.sortLearntsByAct(ls)
	half := len(ls) / 2
	kept := ls[:0]
	for i, r := range ls {
		lits := s.ca.lits(r)
		locked := s.vardata[lits[0].Var()].reason == r && s.value(lits[0]) == lTrue
		if len(lits) > 2 && !locked && (i < half || float64(s.ca.act(r)) < s.claInc/float64(len(ls))) {
			s.detach(r)
			s.ca.free(r)
			continue
		}
		kept = append(kept, r)
	}
	s.learnts = kept
}

func (s *Solver) sortLearntsByAct(cs []ClauseRef) {
	// Shell sort keeps us dependency-free and is fine for this size.
	for gap := len(cs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(cs); i++ {
			r := cs[i]
			a := s.ca.act(r)
			j := i
			for ; j >= gap && s.ca.act(cs[j-gap]) > a; j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = r
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based), with
// base factor y.
func luby(y float64, i int) float64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	p := 1.0
	for ; seq > 0; seq-- {
		p *= y
	}
	return p
}

// checkLimits polls the context, recording the stop cause. It returns true
// when the search must stop.
func (s *Solver) checkLimits() bool {
	if s.Ctx == nil {
		return false
	}
	switch s.Ctx.Err() {
	case nil:
		return false
	case context.DeadlineExceeded:
		s.stop = StopDeadline
	default:
		s.stop = StopCanceled
	}
	return true
}

// learn records the clause produced by conflict analysis: enqueue the
// asserting literal, attach multi-literal clauses, and offer short clauses to
// the exchange when running as a parallel worker.
func (s *Solver) learn(learnt []Lit) {
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], CRefUndef)
	} else {
		r := s.ca.alloc(learnt, true)
		s.learnts = append(s.learnts, r)
		s.attach(r)
		s.claBump(r)
		s.uncheckedEnqueue(learnt[0], r)
	}
	s.stats.ConflictClauses++
	if s.ex != nil && len(learnt) <= shareMaxLen {
		s.exOut = append(s.exOut, append([]Lit(nil), learnt...))
		// Units prune every peer's search immediately; publish them without
		// waiting for the batch to fill. Longer clauses amortize the lock.
		if len(learnt) == 1 || len(s.exOut) >= shareFlushBatch {
			s.flushShared()
		}
	}
}

// search runs CDCL until a result or until nConflicts conflicts occurred.
func (s *Solver) search(nConflicts int64) Status {
	conflicts := int64(0)
	steps := int64(0)
	for {
		steps++
		confl := s.propagate()
		if confl != CRefUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.learn(learnt)
			if btLevel == 0 && s.ex != nil {
				// Already back at the root: trade clauses with the other
				// portfolio workers now instead of waiting for the next
				// scheduled restart (units travel fastest this way).
				if st := s.exchangeSync(); st == Unsat {
					return Unsat
				}
			}
			s.varInc /= s.varDecay
			s.claInc /= s.claDecay

			s.learntAdjustCnt--
			if s.learntAdjustCnt <= 0 {
				s.learntAdjustIncr *= 1.5
				s.learntAdjustCnt = int64(s.learntAdjustIncr)
				s.maxLearnts *= 1.1
			}
			continue
		}
		// No conflict.
		if conflicts >= nConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.stats.Conflicts%1024 == 0 || steps&255 == 0 {
			s.publishProgress()
			if s.checkLimits() {
				s.cancelUntil(0)
				return Unknown
			}
		}
		if float64(len(s.learnts))-float64(len(s.trail)) >= s.maxLearnts {
			s.reduceDB()
		}
		// Establish assumptions before any free decision: each pending
		// assumption opens its own decision level, so decisionLevel() ≤
		// len(assumptions) always means "still inside the assumption
		// prefix". An assumption already true under propagation opens a
		// dummy level (keeping the level↔index correspondence); one already
		// false is a conflict with the assumptions, not with the formula —
		// report Unsat with assumpFailed so Solve leaves unsatFlag alone.
		next := LitUndef
		for next == LitUndef && s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
			case lFalse:
				s.assumpFailed = true
				s.cancelUntil(0)
				return Unsat
			default:
				next = p
			}
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				return Sat
			}
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, CRefUndef)
	}
}

// Solve runs the solver to completion (or budget exhaustion) and returns the
// status. On Sat the model is available via Model.
func (s *Solver) Solve() Status { return s.SolveAssume() }

// SolveAssume solves under the given assumption literals, decided (in order)
// before any free decision. It returns Sat with a model extending the
// assumptions, Unsat when the clauses are unsatisfiable *under the
// assumptions*, or Unknown on a budget/cancellation stop. Unlike an
// unconditional Unsat, an assumption-conditional one does not poison the
// solver: learnt clauses are retained (they are implied by the clause
// database alone) and later calls with different assumptions proceed —
// MiniSat's solve(assumps) incremental interface. AssumptionsFailed
// distinguishes the two after the fact.
func (s *Solver) SolveAssume(assumps ...Lit) Status {
	s.assumptions = append(s.assumptions[:0], assumps...)
	return s.solve()
}

// solve runs the restart loop under whatever s.assumptions currently holds
// (parallel workers enter here so their cloned assumption vector survives).
func (s *Solver) solve() Status {
	s.assumpFailed = false
	s.stop = StopNone
	if s.probe == nil && s.Probes != nil {
		s.probe = s.Probes.New(0)
	}
	defer s.publishProgress() // final counters, budget/verdict paths included
	if s.unsatFlag {
		return Unsat
	}
	for _, p := range s.assumptions {
		if int(p.Var()) >= len(s.assigns) {
			panic("sat: assumption literal names an unknown variable")
		}
	}
	s.cancelUntil(0)
	s.model = nil

	s.maxLearnts = float64(len(s.clauses)) * 0.3
	if s.maxLearnts < 1000 {
		s.maxLearnts = 1000
	}
	s.learntAdjustIncr = 100
	s.learntAdjustCnt = 100

	budget := s.ConflictBudget
	spent := int64(0)
	for restart := 0; ; restart++ {
		// Restart boundary: decision level 0. Reclaim arena space freed by
		// reduceDB and trade clauses with the other portfolio workers.
		if s.ca.shouldGC() {
			s.garbageCollect()
		}
		if s.ex != nil {
			if st := s.exchangeSync(); st == Unsat {
				s.unsatFlag = true
				return Unsat
			}
		}
		n := int64(luby(s.restartBase, restart) * float64(s.restartUnit))
		if budget > 0 && spent+n > budget {
			n = budget - spent
			if n <= 0 {
				s.stop = StopConflictBudget
				return Unknown
			}
		}
		st := s.search(n)
		spent += n
		switch st {
		case Sat:
			s.model = make([]bool, len(s.assigns))
			for v := range s.assigns {
				s.model[v] = s.assigns[v] == lTrue
			}
			s.cancelUntil(0)
			return Sat
		case Unsat:
			if !s.assumpFailed {
				s.unsatFlag = true
			}
			return Unsat
		}
		if s.stop != StopNone {
			return Unknown // search stopped on a limit, not a restart
		}
		if budget > 0 && spent >= budget {
			s.stop = StopConflictBudget
			return Unknown
		}
		if s.checkLimits() {
			return Unknown
		}
		s.stats.Restarts++
	}
}

// StopReason reports why the last Solve call returned Unknown (StopNone when
// it returned a definitive answer).
func (s *Solver) StopReason() StopCause { return s.stop }

// AssumptionsFailed reports whether the last SolveAssume returned Unsat
// because of its assumptions rather than the clause database: the formula
// itself was not shown unsatisfiable and further calls remain meaningful.
func (s *Solver) AssumptionsFailed() bool { return s.assumpFailed }

// Model returns the satisfying assignment found by the last successful Solve.
// Index i holds the value of variable i. The slice is owned by the solver.
func (s *Solver) Model() []bool { return s.model }

// Stats returns a snapshot of the solver counters. After SolveParallel it
// reflects the winning worker (see ParallelStats for the full breakdown).
func (s *Solver) Stats() Stats { return s.stats }

// indexed max-heap over variable activities.
type heap struct {
	heap    []Var
	indices []int // var -> position+1 (0 = absent)
	act     *[]float64
}

func (h *heap) less(a, b Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *heap) empty() bool { return len(h.heap) == 0 }

func (h *heap) inHeap(v Var) bool { return v < len(h.indices) && h.indices[v] != 0 }

func (h *heap) insert(v Var) {
	for v >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap)
	h.percolateUp(len(h.heap) - 1)
}

func (h *heap) decrease(v Var) { h.percolateUp(h.indices[v] - 1) }

func (h *heap) removeMin() Var {
	x := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[x] = 0
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 1
		h.percolateDown(0)
	}
	return x
}

func (h *heap) percolateUp(i int) {
	x := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(x, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = i + 1
		i = p
	}
	h.heap[i] = x
	h.indices[x] = i + 1
}

func (h *heap) percolateDown(i int) {
	x := h.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.heap) {
			break
		}
		child := l
		if r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			child = r
		}
		if !h.less(h.heap[child], x) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[child]] = i + 1
		i = child
	}
	h.heap[i] = x
	h.indices[x] = i + 1
}
