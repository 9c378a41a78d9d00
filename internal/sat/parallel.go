// Parallel portfolio solving in the ManySAT style: N diversified CDCL
// workers race on clones of one CNF, exchanging short learnt clauses through
// a bounded ring buffer; the first definitive answer cancels the rest.
package sat

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

const (
	// shareMaxLen is the maximum length of a learnt clause offered to the
	// exchange. Short clauses are the ones worth the import cost (ManySAT
	// used ≤ 8); unit clauses always qualify.
	shareMaxLen = 8
	// shareFlushBatch bounds how many pending exports a worker buffers
	// before publishing, so the exchange lock is taken in batches.
	shareFlushBatch = 32
	// shareRingCap is the exchange ring capacity. Slow readers skip
	// overwritten entries rather than block writers.
	shareRingCap = 1 << 12
)

// sharedClause is one exchanged learnt clause. The literal slice is
// immutable after publication: importers copy it into their own arena.
type sharedClause struct {
	lits []Lit
	from int32
}

// exchange is the bounded clause-exchange ring shared by the workers of one
// SolveParallel call. It is deliberately lock-light: workers touch the mutex
// only when flushing a batch of exports or collecting imports at a restart
// boundary, never inside the propagation loop, and no operation blocks —
// cancellation can therefore never deadlock an exchange participant.
type exchange struct {
	mu  sync.Mutex
	buf [shareRingCap]sharedClause
	n   uint64 // total clauses ever published; buf[i%cap] holds clause i
}

// publish appends a batch of clauses, overwriting the oldest ring entries.
func (e *exchange) publish(from int32, batch [][]Lit) {
	e.mu.Lock()
	for _, lits := range batch {
		e.buf[e.n%shareRingCap] = sharedClause{lits: lits, from: from}
		e.n++
	}
	e.mu.Unlock()
}

// collect returns the clauses published since cursor by other workers and the
// new cursor. A reader that fell more than the ring capacity behind loses the
// overwritten clauses (sharing is heuristic; dropping is sound).
func (e *exchange) collect(cursor uint64, self int32) ([]sharedClause, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cursor+shareRingCap < e.n {
		cursor = e.n - shareRingCap
	}
	var out []sharedClause
	for ; cursor < e.n; cursor++ {
		if sc := e.buf[cursor%shareRingCap]; sc.from != self {
			out = append(out, sc)
		}
	}
	return out, cursor
}

// flushShared publishes the pending export batch.
func (s *Solver) flushShared() {
	if len(s.exOut) == 0 {
		return
	}
	s.ex.publish(s.exID, s.exOut)
	s.exported += int64(len(s.exOut))
	s.exOut = s.exOut[:0]
}

// exchangeSync runs at a restart boundary (decision level 0): it flushes
// pending exports and imports every clause published by peers since the last
// sync. It returns Unsat when an import refutes the instance outright.
func (s *Solver) exchangeSync() Status {
	s.flushShared()
	in, cursor := s.ex.collect(s.exCursor, s.exID)
	s.exCursor = cursor
	for _, sc := range in {
		if s.importClause(sc.lits) == Unsat {
			return Unsat
		}
	}
	return Unknown
}

// importClause adds a peer's learnt clause at decision level 0. The clause is
// entailed by the instance, so simplifying against the level-0 assignment and
// attaching it as a learnt clause is sound.
func (s *Solver) importClause(lits []Lit) Status {
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return Unknown // already satisfied at level 0
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.imported++
	switch len(out) {
	case 0:
		return Unsat
	case 1:
		s.uncheckedEnqueue(out[0], CRefUndef)
		if s.propagate() != CRefUndef {
			return Unsat
		}
	default:
		r := s.ca.alloc(out, true)
		s.learnts = append(s.learnts, r)
		s.attach(r)
		s.claBump(r)
	}
	return Unknown
}

// clone returns an independent deep copy of the solver: same clauses,
// assignment trail, activities and parameters, sharing no mutable state.
// Thanks to the arena representation this is a few flat copies plus the
// per-literal watch lists. The problem clauses are attached first, so the
// copy is fully attached.
func (s *Solver) clone() *Solver {
	s.attachPending()
	c := &Solver{
		ca:      clauseArena{data: append([]Lit(nil), s.ca.data...), wasted: s.ca.wasted},
		clauses: append([]ClauseRef(nil), s.clauses...),
		learnts: append([]ClauseRef(nil), s.learnts...),
		watches: make([][]watcher, len(s.watches)),

		vals:     append([]lbool(nil), s.vals...),
		vardata:  append([]varData(nil), s.vardata...),
		polarity: append([]bool(nil), s.polarity...),
		activity: append([]float64(nil), s.activity...),
		seen:     make([]byte, len(s.seen)),

		trail:    append([]Lit(nil), s.trail...),
		trailLim: append([]int(nil), s.trailLim...),
		qhead:    s.qhead,
		attached: s.attached,

		varInc:      s.varInc,
		varDecay:    s.varDecay,
		claInc:      s.claInc,
		claDecay:    s.claDecay,
		unsatFlag:   s.unsatFlag,
		assumptions: append([]Lit(nil), s.assumptions...),
		restartBase: s.restartBase,
		restartUnit: s.restartUnit,

		stats: s.stats,

		ConflictBudget: s.ConflictBudget,
	}
	for i := range s.watches {
		c.watches[i] = append([]watcher(nil), s.watches[i]...)
	}
	c.order = heap{
		heap:    append([]Var(nil), s.order.heap...),
		indices: append([]int(nil), s.order.indices...),
		act:     &c.activity,
	}
	return c
}

// diversify perturbs worker id's search parameters so the portfolio explores
// different parts of the search space. Worker 0 keeps the sequential
// reference configuration, so a 1-worker portfolio reproduces Solve exactly.
//
//	id%6  VSIDS decay  restart unit/base  phase        random decisions
//	0     0.95         100 ×2             saved        —
//	1     0.99         300 ×2             saved        —
//	2     0.85          50 ×2             all-positive —
//	3     0.95         700 ×3             saved        2%
//	4     0.92         150 ×2             all-negative 0.5%
//	5     0.97         100 ×2             inverted     1%
func (s *Solver) diversify(id int) {
	if id == 0 {
		return
	}
	s.rndState = uint64(id)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	switch id % 6 {
	case 1:
		s.varDecay = 0.99
		s.restartUnit = 300
	case 2:
		s.varDecay = 0.85
		s.restartUnit = 50
		for v := range s.polarity {
			s.polarity[v] = false
		}
	case 3:
		s.restartUnit = 700
		s.restartBase = 3
		s.rndFreq = 0.02
	case 4:
		s.varDecay = 0.92
		s.restartUnit = 150
		s.rndFreq = 0.005
		for v := range s.polarity {
			s.polarity[v] = true
		}
	case 5:
		s.varDecay = 0.97
		s.rndFreq = 0.01
		for v := range s.polarity {
			s.polarity[v] = !s.polarity[v]
		}
	}
	// Workers beyond one full cycle get progressively longer restart units on
	// top of the base table, so no two workers share a schedule.
	if id >= 6 {
		s.restartUnit += 37 * (id / 6)
	}
}

// WorkerStats is one worker's view of a SolveParallel run.
type WorkerStats struct {
	ID int
	Stats
	// Exported and Imported count clauses this worker published to and
	// adopted from the exchange.
	Exported, Imported int64
	// Result is the worker's own outcome; Winner marks the worker whose
	// definitive answer was adopted.
	Result Status
	Winner bool
}

// ParallelStats aggregates the last SolveParallel run.
type ParallelStats struct {
	Workers   int
	WinnerID  int // -1 when no worker reached a verdict
	PerWorker []WorkerStats
}

// TotalConflicts sums the conflicts across workers (the parallel run's work).
func (p ParallelStats) TotalConflicts() int64 {
	var n int64
	for _, w := range p.PerWorker {
		n += w.Conflicts
	}
	return n
}

// ParallelStats returns the per-worker breakdown of the last SolveParallel
// call (zero value if SolveParallel was never called).
func (s *Solver) ParallelStats() ParallelStats { return s.parStats }

// SolveParallel runs a portfolio of workers diversified CDCL searches over
// this solver's clauses and returns the first definitive answer, cancelling
// the remaining workers through ctx plumbing. Workers exchange learnt
// clauses of length ≤ 8 (units included) through a bounded ring buffer at
// restart boundaries.
//
// workers ≤ 1 degenerates to a plain Solve under ctx and reproduces its
// statistics exactly. With more workers the run is generally not
// deterministic: which worker wins depends on scheduling, so conflict counts
// (and for satisfiable instances the model) can differ between runs.
//
// On return the solver carries the winner's verdict: Model is the winning
// assignment on Sat, Stats reflects the winning (or first) worker, and the
// per-worker breakdown is available via ParallelStats. Level-0 unit facts
// derived by any worker are absorbed into this solver, strengthening later
// incremental Solve calls. ConflictBudget applies to each worker individually,
// and a deadline on ctx or on Ctx stops the search with StopDeadline.
func (s *Solver) SolveParallel(ctx context.Context, workers int) Status {
	return s.SolveAssumeParallel(ctx, workers)
}

// SolveAssumeParallel is SolveParallel under assumption literals: every
// worker decides the assumptions first (see SolveAssume), and the winner's
// verdict is conditional on them in the same way — an assumption-failed
// Unsat leaves the parent solver usable for further calls.
func (s *Solver) SolveAssumeParallel(ctx context.Context, workers int, assumps ...Lit) Status {
	s.assumptions = append(s.assumptions[:0], assumps...)
	s.assumpFailed = false
	if workers <= 1 {
		if ctx != nil && s.Ctx == nil {
			s.Ctx = ctx
			defer func() { s.Ctx = nil }()
		}
		st := s.solve()
		s.parStats = ParallelStats{
			Workers:  1,
			WinnerID: 0,
			PerWorker: []WorkerStats{{
				ID:     0,
				Stats:  s.stats,
				Result: st,
				Winner: st != Unknown,
			}},
		}
		if st == Unknown {
			s.parStats.WinnerID = -1
		}
		return st
	}

	// No short-circuit on unsatFlag here: the flag is cloned into every
	// worker, whose Solve returns Unsat immediately, so parStats always
	// reflects a real (if degenerate) portfolio run.
	s.stop = StopNone
	s.cancelUntil(0)
	s.model = nil

	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.Ctx != nil {
		// Honor a context installed on the solver as well as the argument.
		stop := context.AfterFunc(s.Ctx, cancel)
		defer stop()
	}

	ex := &exchange{}
	ws := make([]*Solver, workers)
	for i := range ws {
		w := s.clone()
		w.diversify(i)
		w.Ctx = runCtx
		w.ex = ex
		w.exID = int32(i)
		w.probe = s.Probes.New(i) // nil Probes hands out a nil probe
		ws[i] = w
	}

	type outcome struct {
		id int
		st Status
	}
	results := make(chan outcome, workers)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		// Each worker goroutine carries pprof labels, so goroutine dumps and
		// CPU profiles from the live debug endpoint attribute work per worker.
		go func(id int, w *Solver) {
			defer wg.Done()
			pprof.Do(runCtx, pprof.Labels("worker", strconv.Itoa(id), "phase", "sat"), func(context.Context) {
				results <- outcome{id, w.solve()}
			})
		}(i, w)
	}

	winner, final := -1, Unknown
	for n := 0; n < workers; n++ {
		o := <-results
		if o.st != Unknown {
			winner, final = o.id, o.st
			break
		}
	}
	cancel()  // stop the losers (no-op when all workers already returned)
	wg.Wait() // workers poll runCtx at bounded intervals, so this is bounded

	s.parStats = ParallelStats{Workers: workers, WinnerID: winner}
	for i, w := range ws {
		s.parStats.PerWorker = append(s.parStats.PerWorker, WorkerStats{
			ID:       i,
			Stats:    w.stats,
			Exported: w.exported,
			Imported: w.imported,
			Result:   w.solveStatus(),
			Winner:   i == winner,
		})
	}

	// Absorb level-0 unit facts (entailed, hence sound to keep) so later
	// incremental calls on this solver start stronger.
	for _, w := range ws {
		s.absorbUnits(w)
		if s.unsatFlag {
			final, winner = Unsat, maxInt(winner, 0)
			break
		}
	}

	switch final {
	case Sat:
		s.stats = ws[winner].stats
		s.stop = StopNone
		s.model = append([]bool(nil), ws[winner].model...)
	case Unsat:
		s.stats = ws[winner].stats
		s.stop = StopNone
		// A verdict conditional on the assumptions must not poison the
		// parent: only a worker that refuted the clause database outright
		// (or an absorbed-unit conflict above) makes the solver permanently
		// Unsat.
		if ws[winner].assumpFailed {
			s.assumpFailed = true
		} else {
			s.unsatFlag = true
		}
	default:
		// No verdict: report the first worker's counters and the most
		// meaningful stop cause across workers (a budget or deadline beats
		// the cancellation the losers observed).
		s.stats = ws[0].stats
		s.stop = StopCanceled
		for _, w := range ws {
			switch w.stop {
			case StopDeadline, StopConflictBudget:
				s.stop = w.stop
			}
		}
		if s.stop == StopCanceled {
			// Workers see a deadline on Ctx only as the cancellation it
			// relays to runCtx; read the cause from Ctx itself.
			s.checkLimits()
		}
	}
	s.parStats.WinnerID = winner
	return final
}

// solveStatus reconstructs the worker's own Solve outcome from its state.
func (w *Solver) solveStatus() Status {
	switch {
	case w.unsatFlag || w.assumpFailed:
		return Unsat
	case w.model != nil:
		return Sat
	default:
		return Unknown
	}
}

// absorbUnits enqueues the worker's level-0 assignments that this solver is
// missing. Both solvers must be at decision level 0.
func (s *Solver) absorbUnits(w *Solver) {
	if s.unsatFlag {
		return
	}
	lim := len(w.trail)
	if len(w.trailLim) > 0 {
		lim = w.trailLim[0]
	}
	for _, l := range w.trail[:lim] {
		switch s.value(l) {
		case lUndef:
			s.uncheckedEnqueue(l, CRefUndef)
			if s.propagate() != CRefUndef {
				s.unsatFlag = true
				return
			}
		case lFalse:
			s.unsatFlag = true
			return
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
