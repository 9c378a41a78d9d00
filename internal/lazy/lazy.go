// Package lazy implements a CVC-style lazy SAT-based decision procedure for
// SUF — the comparison baseline of the paper's Figure 6.
//
// Like EIJ it replaces every separation predicate with a fresh Boolean
// variable, but instead of eagerly conjoining transitivity constraints it
// iterates: the CDCL solver proposes a full assignment, the difference-logic
// theory solver checks it, and if the assignment is spurious the negative
// cycle found becomes a conflict clause over the smallest involved literal
// set. Each iteration costs a theory call — the overhead the paper measures
// against the eager HYBRID method.
package lazy

import (
	"context"
	"fmt"
	"time"

	"sufsat/internal/boolexpr"
	"sufsat/internal/core"
	"sufsat/internal/difflogic"
	"sufsat/internal/obs"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/suf"
)

// Stats reports lazy-loop measurements.
type Stats struct {
	// Iterations is the number of SAT↔theory round trips.
	Iterations int
	// TheoryConflicts is the number of conflict clauses added from negative
	// cycles.
	TheoryConflicts int
	// PredVars is the size of the Boolean abstraction.
	PredVars int
	SAT      sat.Stats
	Total    time.Duration
}

// Result is the outcome of Decide.
type Result struct {
	Status core.Status
	Err    error
	Stats  Stats
	// Model is the falsifying interpretation when Status == Invalid: the
	// final SAT assignment's Boolean constants plus the consistent theory
	// check's difference-logic solution, completed like the eager pipeline's
	// model (unconstrained constants zeroed, V_p constants re-spaced).
	Model *core.Model
	// Telemetry is the unified snapshot of the run, present (on every exit
	// path) iff Options.Telemetry was set.
	Telemetry *obs.Snapshot
}

// Options configures Decide.
type Options struct {
	// Timeout bounds total wall-clock time (0 = none).
	Timeout time.Duration
	// Workers is the parallel clause-sharing portfolio size for each SAT
	// query of the refinement loop (≤ 1 = sequential). The master solver
	// keeps the theory conflict clauses and absorbs unit facts derived by
	// the workers, so learning accumulates across iterations either way.
	Workers int
	// Telemetry, when non-nil, records phase spans (funcelim, analyze,
	// abstract, refine), samples worker progress during the refinement
	// loop's SAT searches, and attaches a unified snapshot to the Result on
	// every exit path.
	Telemetry *obs.Recorder
}

// Decide checks validity of the SUF formula f with the lazy procedure.
// Cancelling ctx aborts the run with a Canceled status at the next poll
// point (a stage entry, a SAT poll or a refinement-loop boundary); a ctx
// deadline or Options.Timeout yields Timeout.
func Decide(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, o Options) *Result {
	start := time.Now()
	rec := o.Telemetry
	workers := o.Workers
	res := &Result{}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}

	// emit stamps the unified snapshot onto a result on its way out; every
	// exit path of this function goes through it.
	emit := func(r *Result) *Result {
		r.Telemetry = snapshot(r, rec)
		return r
	}

	elim, info, err := core.Separate(ctx, f, b, core.Options{Telemetry: rec})
	if err != nil {
		return emit(fail(res, err, start))
	}

	// Boolean abstraction: per-constraint atom encoding without F_trans.
	absSpan := rec.StartSpan("abstract")
	bb := boolexpr.NewBuilder()
	abs := perconstraint.NewEncoder(info, b, bb)
	abs.Ctx = ctx
	bvar, err := abs.Walker().Encode(info.Formula)
	if err != nil {
		absSpan.End()
		return emit(fail(res, err, start))
	}

	solver := sat.New()
	solver.Ctx = ctx
	solver.Probes = rec.Probes()
	cnf := boolexpr.AssertTrue(bb.Not(bvar), solver) // refute ¬F
	absSpan.AttrInt("pred_vars", len(abs.Predicates())).
		AttrInt("cnf_clauses", solver.Stats().Clauses)
	absSpan.End()

	// Map each predicate variable to its SAT literal.
	preds := abs.Predicates()
	res.Stats.PredVars = len(preds)
	type absPred struct {
		perconstraint.PredVar
		lit sat.Lit
	}
	var tracked []absPred
	for _, p := range preds {
		if l, ok := cnf.VarLits[p.Var.Name()]; ok {
			tracked = append(tracked, absPred{p, l})
		}
		// Predicates folded away by simplification never reach the CNF; they
		// cannot constrain the theory, so they are safely untracked.
	}

	// The refinement loop is one span; per-iteration spans would swamp the
	// trace on conflict-heavy runs. Worker progress sampling covers the SAT
	// searches inside it.
	refSpan := rec.StartSpan("refine")
	stopSampling := rec.StartSampling()
	done := func(r *Result) *Result {
		stopSampling()
		refSpan.AttrInt("iterations", r.Stats.Iterations).
			AttrInt("theory_conflicts", r.Stats.TheoryConflicts).End()
		return emit(r)
	}

	for {
		if err := ctx.Err(); err != nil {
			return done(fail(res, fmt.Errorf("lazy: %w", err), start))
		}
		res.Stats.Iterations++
		var st sat.Status
		if workers > 1 {
			st = solver.SolveParallel(ctx, workers)
		} else {
			st = solver.Solve()
		}
		switch st {
		case sat.Unsat:
			res.Status = core.Valid
			return done(finish(res, solver, start))
		case sat.Unknown:
			return done(fail(res, core.SATStopError(solver.StopReason()), start))
		}
		model := solver.Model()

		// Theory check of the full assignment.
		th := difflogic.NewSolver()
		var conflict []difflogic.Constraint
		for _, p := range tracked {
			val := model[p.lit.Var()]
			if p.lit.Neg() {
				val = !val
			}
			var c difflogic.Constraint
			if val {
				c = difflogic.Constraint{X: p.X, Y: p.Y, C: int64(p.C), Tag: p.lit}
			} else {
				// ¬(x−y≤c) ⟺ y−x ≤ −c−1
				c = difflogic.Constraint{X: p.Y, Y: p.X, C: int64(-p.C - 1), Tag: p.lit.Not()}
			}
			if conflict = th.Assert(c); conflict != nil {
				break
			}
		}
		if conflict == nil {
			// Consistent: genuine falsifying interpretation. The theory
			// solver's integer solution plus the SAT values of the symbolic
			// Boolean constants are the model.
			res.Status = core.Invalid
			consts := th.Model()
			bools := make(map[string]bool)
			for name, l := range cnf.VarLits {
				if len(name) > 3 && name[:3] == "sb!" {
					val := model[l.Var()]
					if l.Neg() {
						val = !val
					}
					bools[name[3:]] = val
				}
			}
			res.Model = core.ReconstructModel(consts, bools, info, elim)
			return done(finish(res, solver, start))
		}
		// Spurious: block the negative cycle.
		clause := make([]sat.Lit, len(conflict))
		for i, c := range conflict {
			clause[i] = c.Tag.(sat.Lit).Not()
		}
		res.Stats.TheoryConflicts++
		if !solver.AddClause(clause...) {
			res.Status = core.Valid
			return done(finish(res, solver, start))
		}
	}
}

func finish(res *Result, solver *sat.Solver, start time.Time) *Result {
	res.Stats.SAT = solver.Stats()
	res.Stats.Total = time.Since(start)
	return res
}

func fail(res *Result, err error, start time.Time) *Result {
	res.Status, res.Err = core.Classify(err)
	res.Stats.Total = time.Since(start)
	return res
}

// snapshot builds the unified telemetry report for a lazy run (nil when
// telemetry is disabled).
func snapshot(res *Result, rec *obs.Recorder) *obs.Snapshot {
	if rec == nil {
		return nil
	}
	snap := &obs.Snapshot{
		Method: "LAZY",
		Status: res.Status.String(),
		SAT:    core.SolverSnapshot(res.Stats.SAT),
		Lazy: &obs.LazySnap{
			Iterations:      res.Stats.Iterations,
			TheoryConflicts: res.Stats.TheoryConflicts,
			PredVars:        res.Stats.PredVars,
		},
		Timings: obs.DurationsToTimings(0, 0, res.Stats.Total),
	}
	if res.Err != nil {
		snap.Error = res.Err.Error()
	}
	return snap.Finish(rec)
}
