// Package core implements the paper's primary contribution: the HYBRID
// SAT-based decision procedure for SUF (§4), together with the end-to-end
// Decide pipeline shared by the pure small-domain (SD) and per-constraint
// (EIJ) methods, and the automatic SEP_THOLD selection of §4.1.
//
// The pipeline for a validity query F:
//
//  1. eliminate uninterpreted function/predicate applications with
//     positive-equality tracking (package funcelim) → separation formula;
//  2. analyze: normalize ground terms, build symbolic-constant classes,
//     domain sizes and SepCnt (package sep);
//  3. encode each class with EIJ if SepCnt(V_i) ≤ SEP_THOLD, else with SD —
//     classes are independent, so the two encoders coexist in one Boolean
//     formula (packages smalldomain, perconstraint);
//  4. hand F_trans ∧ ¬F_bvar to the CDCL SAT solver (package sat):
//     unsatisfiable ⟺ F is valid.
//
// The steps are written once: Separate is steps 1–2 (the front half the
// lazy and SVC baselines share), prepare is steps 1–3, and solve is step 4.
// DecideCtx is prepare + solve, OpenSession is prepare and
// Session.DecideAssuming is solve under assumptions.
//
// The pipeline is a cancellable, budgeted service core: its context, the
// only cancellation channel, reaches every stage (both encoders,
// transitivity generation and the SAT search poll it), explicit resource
// budgets bound translation and search, and every failure mode is
// classified into the Status taxonomy of status.go. When a class's EIJ transitivity generation exhausts its budget
// under the Hybrid method, the class is re-routed to the SD encoder and
// encoding retried — a robustness-driven extension of SEP_THOLD routing —
// instead of failing the call.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"sufsat/internal/boolexpr"
	"sufsat/internal/enc"
	"sufsat/internal/funcelim"
	"sufsat/internal/obs"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/smalldomain"
	"sufsat/internal/stats"
	"sufsat/internal/suf"
)

// Method selects the Boolean encoding.
type Method int

// Encoding methods.
const (
	// Hybrid is the paper's contribution: per-class choice between EIJ and
	// SD driven by SepCnt(V_i) vs SEP_THOLD.
	Hybrid Method = iota
	// SD is pure small-domain (finite instantiation) encoding.
	SD
	// EIJ is pure per-constraint encoding.
	EIJ
)

func (m Method) String() string {
	switch m {
	case Hybrid:
		return "HYBRID"
	case SD:
		return "SD"
	case EIJ:
		return "EIJ"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// DefaultSepThreshold is the default SEP_THOLD. The paper derives 700 for
// its implementation and benchmarks by minimum-variance clustering of
// normalized EIJ run-times over a 16-formula sample (§4.1). Running the same
// procedure on this implementation's benchmark suite
// (cmd/experiments -fig threshold) yields 200, which is the default here;
// the difference reflects benchmark scale, not a different procedure.
const DefaultSepThreshold = 200

// Options configures Decide.
type Options struct {
	// Method selects the encoding; the zero value is Hybrid.
	Method Method
	// SepThreshold is SEP_THOLD; 0 means DefaultSepThreshold.
	SepThreshold int
	// MaxTransClauses caps EIJ transitivity-constraint generation
	// (0 = unlimited). Under the Hybrid method the cap degrades gracefully:
	// the class whose generation exhausts it is re-routed to the SD encoder
	// and encoding retried (see NoDegrade); pure EIJ fails with ResourceOut.
	MaxTransClauses int
	// MaxCNFClauses caps the problem clauses handed to the SAT solver
	// (0 = unlimited); exceeding it returns ResourceOut with ErrClauseBudget.
	MaxCNFClauses int
	// MaxConflicts caps SAT conflicts (0 = unlimited); exhausting it returns
	// ResourceOut with ErrConflictBudget.
	MaxConflicts int64
	// MaxMemoryEstimate caps the estimated resident size in bytes of the
	// Boolean encoding plus solver state (0 = unlimited); exceeding it
	// returns ResourceOut with ErrMemoryBudget.
	MaxMemoryEstimate int64
	// SolverWorkers selects the number of diversified CDCL workers racing on
	// the encoded SAT query with clause sharing (sat.SolveParallel); 0 or 1
	// means the sequential solver. With more than one worker the SAT search
	// is generally not deterministic run to run (which worker wins depends on
	// scheduling), though the verdict itself never varies.
	SolverWorkers int
	// NoDegrade disables the Hybrid per-class EIJ→SD fallback on
	// transitivity-budget exhaustion, so the budget aborts the call like the
	// paper's translation-stage timeout (the experiment harness sets this to
	// preserve the measured protocol).
	NoDegrade bool
	// Ackermann selects Ackermann's function elimination instead of the
	// nested-ITE scheme — the positive-equality ablation.
	Ackermann bool
	// DumpCNF, when non-nil, receives the encoded query (F_trans ∧ ¬F_bvar)
	// in DIMACS format before the SAT search starts, for use with external
	// solvers.
	DumpCNF io.Writer
	// Timeout bounds the total wall-clock time (0 = none). It is applied as
	// a deadline on the run's context, the one cancellation channel of the
	// pipeline; a session applies it to OpenSession and to each
	// DecideAssuming call.
	Timeout time.Duration
	// Hook, when non-nil, is called at entry to each named pipeline stage
	// (see Stages); a non-nil return aborts the run with the error's
	// classified status. Used by the fault-injection harness and service
	// instrumentation.
	Hook StageHook
	// Telemetry, when non-nil, records phase-scoped spans for every pipeline
	// stage, samples per-worker solver progress during the SAT search, and
	// attaches a unified obs.Snapshot to every Result, on every exit path.
	// nil disables all of it at the cost of an untaken branch per stage (the
	// nil-sink fast path).
	Telemetry *obs.Recorder
}

// sepThreshold returns the effective SEP_THOLD.
func (o *Options) sepThreshold() int {
	if o.SepThreshold == 0 {
		return DefaultSepThreshold
	}
	return o.SepThreshold
}

// Stats aggregates pipeline measurements — the quantities the paper's
// figures report.
type Stats struct {
	SUFNodes  int // DAG size of the input formula
	SepPreds  int // total distinct separation predicates (Fig. 3 x-axis)
	Classes   int // number of symbolic-constant classes
	SDClasses int // classes encoded with SD
	// DemotedClasses counts classes re-routed from EIJ to SD because their
	// transitivity generation exhausted the budget (included in SDClasses).
	DemotedClasses int
	PFraction      float64

	BoolNodes  int // Boolean DAG size
	CNFClauses int // problem clauses given to the SAT solver (Fig. 2)

	EncodeTime time.Duration
	SATTime    time.Duration
	TotalTime  time.Duration

	SAT sat.Stats // conflict clauses, decisions, propagations (Fig. 2)
	// SATParallel is the per-worker breakdown when Options.SolverWorkers > 1
	// (zero value otherwise).
	SATParallel sat.ParallelStats

	SDStats  smalldomain.Stats
	EIJStats perconstraint.Stats
}

// Result is the outcome of Decide.
type Result struct {
	Status Status
	// Err classifies any non-definitive Status with a typed sentinel
	// (ErrCanceled, ErrDeadline, ErrTransBudget, ErrClauseBudget,
	// ErrConflictBudget, ErrMemoryBudget, a *PanicError, …); wrapping errors
	// may add detail, so test with errors.Is.
	Err   error
	Stats Stats
	// Model is the reconstructed falsifying interpretation when Status ==
	// Invalid (nil otherwise).
	Model *Model
	// Telemetry is the unified snapshot of the run, present (on every exit
	// path, failures included) iff Options.Telemetry was set.
	Telemetry *obs.Snapshot
}

// Decide checks validity of the SUF formula f (built in b) under a
// background context; Options.Timeout still bounds it. See DecideCtx.
func Decide(f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	return DecideCtx(context.Background(), f, b, opts)
}

// withTimeout derives the run context: ctx (the background context when
// nil) with Options.Timeout applied as a deadline.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// DecideCtx checks validity of the SUF formula f (built in b): prepare, then
// solve with no assumptions. Cancelling ctx aborts the run with a Canceled
// status within a bounded number of pipeline steps; a ctx deadline (or
// Options.Timeout) yields Timeout. Every exit path carries the telemetry
// snapshot, so failed runs are diagnosable from whatever was measured before
// the stop.
func DecideCtx(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) *Result {
	start := time.Now()
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	res := &Result{}
	if q, err := prepare(ctx, f, b, opts, &res.Stats); err != nil {
		res.Status, res.Err = Classify(err)
	} else {
		q.solve(ctx, opts, nil, res)
	}
	res.Stats.TotalTime = time.Since(start)
	res.Telemetry = res.snapshot(opts.Telemetry, opts.Method)
	return res
}

// enterStage runs the stage hook (if any), then polls the context, so a
// hook that cancels the context aborts the run right at the stage's entry.
func enterStage(ctx context.Context, hook StageHook, stage string) error {
	if hook != nil {
		if err := hook(stage); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Separate is the front half every engine shares, steps 1 and 2 of the
// pipeline: function and predicate elimination, then separation analysis.
// Each stage is entered through Options.Hook and a context poll and recorded
// as one span of Options.Telemetry. On an analysis error the elimination
// result is still returned.
func Separate(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) (*funcelim.Result, *sep.Info, error) {
	rec := opts.Telemetry
	if err := enterStage(ctx, opts.Hook, StageFuncElim); err != nil {
		return nil, nil, err
	}
	feSpan := rec.StartSpan(StageFuncElim).AttrBool("ackermann", opts.Ackermann)
	var elim *funcelim.Result
	if opts.Ackermann {
		elim = funcelim.EliminateAckermann(f, b)
	} else {
		elim = funcelim.Eliminate(f, b)
	}
	feSpan.AttrFloat("p_func_fraction", elim.PFuncFraction).
		AttrInt("func_apps", elim.NumApps).AttrInt("p_func_apps", elim.NumPApps)
	feSpan.End()

	if err := enterStage(ctx, opts.Hook, StageAnalyze); err != nil {
		return elim, nil, err
	}
	anSpan := rec.StartSpan(StageAnalyze)
	info, err := sep.Analyze(elim.Formula, b, elim.PConsts)
	if err != nil {
		return elim, nil, err
	}
	anSpan.AttrInt("sep_preds", info.NumSepPreds).AttrInt("classes", len(info.Classes)).
		AttrInt("sep_thold", opts.sepThreshold())
	anSpan.End()
	return elim, info, nil
}

// query is a validity check's SAT query asserted into its own solver, with
// what model extraction reads back: the encoders that built it, the
// separation analysis and the function elimination.
type query struct {
	solver *sat.Solver
	cnf    boolexpr.CNF
	sdEnc  *smalldomain.Encoder
	eijEnc *perconstraint.Encoder
	info   *sep.Info
	elim   *funcelim.Result
}

// prepare runs the pipeline up to the SAT search, the part DecideCtx and
// OpenSession share: Separate, the encode → assert ladder of buildQuery,
// then the DIMACS dump when Options.DumpCNF is set. It fills st as it goes,
// so a failed run reports what was measured before the stop; EncodeTime
// covers everything before the dump.
func prepare(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options, st *Stats) (query, error) {
	start := time.Now()
	st.SUFNodes = suf.CountNodes(f)
	elim, info, err := Separate(ctx, f, b, opts)
	if elim != nil {
		st.PFraction = elim.PFuncFraction
	}
	var q query
	if err == nil {
		st.SepPreds, st.Classes = info.NumSepPreds, len(info.Classes)
		q, err = buildQuery(ctx, info, b, opts, st)
	}
	st.EncodeTime = time.Since(start)
	if err != nil {
		return query{}, err
	}
	q.elim = elim

	if opts.DumpCNF != nil {
		if err := enterStage(ctx, opts.Hook, StageDump); err != nil {
			return query{}, err
		}
		dumpSpan := opts.Telemetry.StartSpan(StageDump)
		if err := q.solver.WriteDIMACS(opts.DumpCNF); err != nil {
			return query{}, fmt.Errorf("core: DIMACS dump: %w", err)
		}
		dumpSpan.End()
	}
	return q, nil
}

// buildQuery is step 3 of the pipeline, the encode → assert ladder. Each
// attempt encodes F_bvar into a fresh Boolean builder and asserts
// F_trans ∧ ¬F_bvar into a fresh solver with AssertQuery. Under Hybrid, a
// class whose transitivity generation exhausts the budget is demoted to SD
// and the ladder starts again from a fresh builder and solver, so the
// clauses the demoted class already streamed leave with the old solver.
// Each class is demoted at most once, so the loop terminates. The
// post-encoding budgets are checked last.
func buildQuery(ctx context.Context, info *sep.Info, b *suf.Builder, opts Options, st *Stats) (query, error) {
	rec := opts.Telemetry
	var demoted map[*sep.Class]bool
	for {
		if err := enterStage(ctx, opts.Hook, StageEncode); err != nil {
			return query{}, err
		}
		encSpan := rec.StartSpan(StageEncode)
		bb := boolexpr.NewBuilder()
		st.SDClasses = 0
		st.SDStats = smalldomain.Stats{}
		var timing *encTiming
		if rec != nil {
			timing = new(encTiming)
		}
		bvar, sdEnc, eijEnc, err := encode(ctx, info, b, bb, opts, demoted, st, timing)
		if err != nil {
			return query{}, err
		}
		encSpan.AttrInt("sd_classes", st.SDClasses).
			AttrInt("eij_classes", st.Classes-st.SDClasses).
			AttrInt("demoted_classes", st.DemotedClasses).
			AttrInt("bool_nodes", bb.NumNodes())
		if timing != nil {
			encSpan.AttrFloat("sd_ms", float64(timing.sdNS)/1e6).
				AttrFloat("eij_ms", float64(timing.eijNS)/1e6)
		}
		encSpan.End()

		if err := enterStage(ctx, opts.Hook, StageTrans); err != nil {
			return query{}, err
		}
		solver := sat.New()
		cnf, err := AssertQuery(solver, bvar, eijEnc, rec)
		if err != nil {
			var be *perconstraint.BudgetError
			if opts.Method == Hybrid && !opts.NoDegrade &&
				errors.As(err, &be) && be.Class != nil && !demoted[be.Class] {
				if demoted == nil {
					demoted = make(map[*sep.Class]bool)
				}
				demoted[be.Class] = true
				st.DemotedClasses++
				continue
			}
			return query{}, err
		}
		st.BoolNodes = bb.NumNodes()
		st.EIJStats = eijEnc.Stats()
		st.CNFClauses = solver.Stats().Clauses

		if opts.MaxCNFClauses > 0 && st.CNFClauses > opts.MaxCNFClauses {
			return query{}, fmt.Errorf("%w: %d clauses > limit %d",
				ErrClauseBudget, st.CNFClauses, opts.MaxCNFClauses)
		}
		if opts.MaxMemoryEstimate > 0 {
			if est := estimateMemory(st.BoolNodes, solver.Stats()); est > opts.MaxMemoryEstimate {
				return query{}, fmt.Errorf("%w: ~%d bytes > limit %d",
					ErrMemoryBudget, est, opts.MaxMemoryEstimate)
			}
		}
		return query{solver: solver, cnf: cnf, sdEnc: sdEnc, eijEnc: eijEnc, info: info}, nil
	}
}

// solve is step 4 of the pipeline, shared by DecideCtx and
// Session.DecideAssuming: it runs the SAT search on q under the assumption
// literals (none for DecideCtx) and classifies the outcome into res — Valid
// on Unsat, Invalid with the extracted model on Sat, otherwise the stop's
// sentinel. The budgets, the stage hook and the recorder come from opts;
// while the search runs, the recorder's collector goroutine samples every
// worker's lock-free progress slot.
func (q *query) solve(ctx context.Context, opts Options, assumps []sat.Lit, res *Result) {
	if err := enterStage(ctx, opts.Hook, StageSAT); err != nil {
		res.Status, res.Err = Classify(err)
		return
	}
	rec := opts.Telemetry
	solver := q.solver
	solver.Ctx = ctx
	solver.ConflictBudget = opts.MaxConflicts
	solver.Probes = rec.Probes()
	satSpan := rec.StartSpan(StageSAT).AttrInt("workers", max(opts.SolverWorkers, 1))
	stopSampling := rec.StartSampling()
	start := time.Now()
	var satStatus sat.Status
	if opts.SolverWorkers > 1 {
		satStatus = solver.SolveAssumeParallel(ctx, opts.SolverWorkers, assumps...)
		res.Stats.SATParallel = solver.ParallelStats()
	} else {
		satStatus = solver.SolveAssume(assumps...)
	}
	stopSampling()
	switch satStatus {
	case sat.Unsat:
		res.Status = Valid
	case sat.Sat:
		res.Status = Invalid
		res.Model = extractModel(solver, q.cnf, q.info, q.sdEnc, q.eijEnc, q.elim)
	default:
		res.Status, res.Err = Classify(SATStopError(solver.StopReason()))
	}
	res.Stats.SAT = solver.Stats()
	res.Stats.SATTime = time.Since(start)
	satSpan.AttrStr("verdict", satStatus.String()).
		AttrInt64("conflicts", res.Stats.SAT.Conflicts).
		AttrInt64("conflict_clauses", res.Stats.SAT.ConflictClauses)
	satSpan.End()
}

// AssertQuery asserts the SAT query of a validity check into solver:
// validity of F ⟺ unsatisfiability of F_trans ∧ ¬F_bvar. ¬F_bvar goes
// through Tseitin (the cnf span); then eij's transitivity generator streams
// F_trans into solver in clausal form as it emits it (the trans span), so
// F_trans is never held in memory. Each F_trans variable is resolved against
// the Tseitin variable map once, not once per literal; a variable the map
// lacks (derived, or folded out of F_bvar) gets a fresh solver variable at
// its first literal and is added to the returned map, so SAT variables are
// numbered in clause order. Every clause is asserted, even after the solver
// is refuted at level 0, so the query's size does not depend on when that
// happens. The returned CNF's Top is F_bvar's literal. rec may be nil.
func AssertQuery(solver *sat.Solver, bvar *boolexpr.Node, eij *perconstraint.Encoder, rec *obs.Recorder) (boolexpr.CNF, error) {
	cnfSpan := rec.StartSpan("cnf")
	cnf := boolexpr.ToCNF(bvar, solver)
	solver.AddClause(cnf.Top.Not())
	cnfSpan.AttrInt("vars", solver.Stats().Vars).AttrInt("cnf_clauses", solver.Stats().Clauses)
	cnfSpan.End()

	transSpan := rec.StartSpan(StageTrans)
	var varLits []sat.Lit // var index → SAT literal; LitUndef until resolved
	clause := make([]sat.Lit, 0, 3)
	n := 0
	err := eij.EachTransClause(func(lits []int32, vars []*boolexpr.Node) error {
		for len(varLits) < len(vars) {
			varLits = append(varLits, sat.LitUndef)
		}
		clause = clause[:0]
		for _, code := range lits {
			l := varLits[code>>1]
			if l == sat.LitUndef {
				name := vars[code>>1].Name()
				var ok bool
				if l, ok = cnf.VarLits[name]; !ok {
					l = sat.PosLit(solver.NewVar())
					cnf.VarLits[name] = l
				}
				varLits[code>>1] = l
			}
			if code&1 == 1 {
				l = l.Not()
			}
			clause = append(clause, l)
		}
		solver.AddClause(clause...)
		n++
		return nil
	})
	if err != nil {
		transSpan.AttrBool("budget_exhausted", errors.Is(err, perconstraint.ErrTranslationLimit)).End()
		return cnf, err
	}
	transSpan.AttrInt("trans_clauses", n).
		AttrInt("trans_constraints", eij.Stats().TransConstraints).
		AttrInt("vars", solver.Stats().Vars).
		AttrInt("cnf_clauses", solver.Stats().Clauses)
	transSpan.End()
	return cnf, nil
}

// estimateMemory is a coarse resident-size estimate in bytes of the encoded
// problem: boolexpr DAG nodes, solver clauses (headers plus literals) and
// per-variable solver state. It deliberately over-approximates per-item cost
// so the budget errs on the safe side.
func estimateMemory(boolNodes int, st sat.Stats) int64 {
	return int64(boolNodes)*96 + int64(st.Clauses)*112 + int64(st.Vars)*160
}

// encTiming accumulates per-encoder wall-clock during one encode pass, so
// the encode span can attribute its duration to the SD and EIJ encoders
// (the sd_ms/eij_ms attributes the metrics layer turns into the
// encode_sd/encode_eij phases). Only allocated when telemetry is on; the
// walker is single-threaded, so plain int64 accumulation suffices.
type encTiming struct{ sdNS, eijNS int64 }

// timedAtom wraps an atom encoder, accumulating its wall-clock into acc.
func timedAtom(f func(*suf.BoolExpr) (*boolexpr.Node, error), acc *int64) func(*suf.BoolExpr) (*boolexpr.Node, error) {
	return func(a *suf.BoolExpr) (*boolexpr.Node, error) {
		t0 := time.Now()
		n, err := f(a)
		*acc += time.Since(t0).Nanoseconds()
		return n, err
	}
}

// encode builds F_bvar with the selected method and returns the EIJ encoder
// whose pending transitivity constraints the caller must assert. For Hybrid,
// atoms are routed per class: SepCnt(V_i) > SEP_THOLD → SD, otherwise EIJ
// (§4 step 5); class-less atoms (only V_p or single-constant comparisons)
// go to EIJ, which folds them to constants. Classes in demoted are forced to
// SD regardless of SepCnt (the transitivity-budget degradation path).
func encode(ctx context.Context, info *sep.Info, b *suf.Builder, bb *boolexpr.Builder, opts Options,
	demoted map[*sep.Class]bool, st *Stats, timing *encTiming) (bvar *boolexpr.Node, sdEnc *smalldomain.Encoder, eij *perconstraint.Encoder, err error) {

	method, threshold := opts.Method, opts.sepThreshold()
	sdEnc = smalldomain.NewEncoder(info, b, bb)
	sdEnc.Ctx = ctx
	eijEnc := perconstraint.NewEncoder(info, b, bb)
	eijEnc.MaxTrans = opts.MaxTransClauses
	eijEnc.Ctx = ctx

	encodeSD, encodeEIJ := sdEnc.EncodeAtom, eijEnc.EncodeAtom
	if timing != nil {
		encodeSD = timedAtom(encodeSD, &timing.sdNS)
		encodeEIJ = timedAtom(encodeEIJ, &timing.eijNS)
	}
	var atom func(a *suf.BoolExpr) (*boolexpr.Node, error)
	switch method {
	case SD:
		atom = encodeSD
	case EIJ:
		atom = encodeEIJ
	default:
		atom = func(a *suf.BoolExpr) (*boolexpr.Node, error) {
			if cl := atomClass(info, a); cl != nil && (cl.SepCnt > threshold || demoted[cl]) {
				return encodeSD(a)
			}
			return encodeEIJ(a)
		}
	}
	w := enc.NewWalker(bb, atom)
	sdEnc.SetWalker(w)
	eijEnc.SetWalker(w)

	bvar, err = w.Encode(info.Formula)
	if err != nil {
		return nil, nil, nil, err
	}
	st.SDStats = sdEnc.Stats()
	if method != EIJ {
		for _, cl := range info.Classes {
			if method == SD || cl.SepCnt > threshold || demoted[cl] {
				st.SDClasses++
			}
		}
	}
	return bvar, sdEnc, eijEnc, nil
}

// atomClass returns the V_g class the atom's constants belong to (nil when
// the atom touches no general constants). All general leaves of one atom
// share a class by construction of the classes.
func atomClass(info *sep.Info, a *suf.BoolExpr) *sep.Class {
	t1, t2 := a.Terms()
	for _, t := range [2]*suf.IntExpr{t1, t2} {
		for _, g := range sep.Leaves(t) {
			if cl := info.ClassOf[g.Var]; cl != nil {
				return cl
			}
		}
	}
	return nil
}

// Sample is one benchmark's observation for threshold selection: its number
// of separation predicates and the EIJ run-time normalized by formula size
// (seconds per kilonode).
type Sample struct {
	SepPreds int
	NormTime float64
}

// SelectThreshold implements §4.1: sort the normalized EIJ run-times,
// cluster them into two groups with the minimum-variance split, and return
// the smallest multiple of 100 greater than n_k, the separation-predicate
// count of the last benchmark in the fast cluster.
func SelectThreshold(samples []Sample) int {
	if len(samples) < 2 {
		return DefaultSepThreshold
	}
	sorted := make([]Sample, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NormTime < sorted[j].NormTime })
	times := make([]float64, len(sorted))
	for i, s := range sorted {
		times[i] = s.NormTime
	}
	k := stats.MinVarianceSplit(times)
	nk := sorted[k-1].SepPreds
	return stats.RoundUpToMultiple(nk, 100)
}
