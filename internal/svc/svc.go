// Package svc implements an SVC-style recursive case-splitting decision
// procedure for SUF — the second comparison baseline of the paper's
// Figure 6.
//
// After function elimination and ITE flattening, the falsifiability query
// ¬F is decided by structural case splitting: pick a ground atom of the
// formula, assert it (or its negation) into the incremental difference-logic
// solver, substitute its value, simplify, and recurse. A conjunction of
// separation predicates therefore reduces to a single incremental
// negative-cycle check — the shortest-path behaviour that makes SVC fast on
// conjunctive formulas — while disjunction-rich formulas force exponential
// splitting, the blow-up the paper observes.
//
// Unlike SVC 1.1, which interprets functions over the rationals, this
// implementation is integer-sound (x < y asserts x ≤ y − 1). The experiment
// harness still excludes invariant-checking benchmarks from SVC runs to
// mirror the paper's protocol.
package svc

import (
	"context"
	"fmt"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/difflogic"
	"sufsat/internal/obs"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// Stats reports case-splitting measurements.
type Stats struct {
	// Splits is the number of case splits performed.
	Splits int64
	// TheoryAsserts is the number of difference constraints asserted.
	TheoryAsserts int64
	Total         time.Duration
}

// Result is the outcome of Decide.
type Result struct {
	Status core.Status
	Err    error
	Stats  Stats
	// Telemetry is the unified snapshot of the run, present (on every exit
	// path) iff Options.Telemetry was set.
	Telemetry *obs.Snapshot
}

// Options configures Decide.
type Options struct {
	// Timeout bounds total wall-clock time (0 = none).
	Timeout time.Duration
	// Telemetry, when non-nil, records phase spans (funcelim, analyze,
	// split) and attaches a unified snapshot to the Result on every exit
	// path. SVC has no SAT workers, so no progress samples are produced.
	Telemetry *obs.Recorder
}

type prover struct {
	b     *suf.Builder
	info  *sep.Info
	th    *difflogic.Solver
	ctx   context.Context // polled once per satisfiable() call
	stats Stats
}

// Decide checks validity of the SUF formula f by case splitting.
// Cancelling ctx aborts the run with a Canceled status at the next case
// split; a ctx deadline or Options.Timeout yields Timeout.
func Decide(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, o Options) *Result {
	start := time.Now()
	rec := o.Telemetry
	res := &Result{}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	_, info, err := core.Separate(ctx, f, b, core.Options{Telemetry: rec})
	if err == nil {
		p := &prover{b: b, info: info, th: difflogic.NewSolver(), ctx: ctx}
		// Refute ¬F: flatten its atoms to ground predicates first. The split
		// span covers flattening and the whole recursive search; per-split
		// spans would swamp the trace on disjunction-rich formulas.
		spSpan := rec.StartSpan("split")
		var query *suf.BoolExpr
		var falsifiable bool
		if query, err = p.flatten(b.Not(info.Formula)); err == nil {
			falsifiable, err = p.satisfiable(query)
		}
		res.Stats = p.stats
		spSpan.AttrInt64("splits", res.Stats.Splits).
			AttrInt64("theory_asserts", res.Stats.TheoryAsserts).End()
		res.Status = core.Valid
		if falsifiable {
			res.Status = core.Invalid
		}
	}
	if err != nil {
		res.Status, res.Err = core.Classify(err)
	}
	res.Stats.Total = time.Since(start)
	res.Telemetry = snapshot(res, rec)
	return res
}

// snapshot builds the unified telemetry report for an SVC run (nil when
// telemetry is disabled).
func snapshot(res *Result, rec *obs.Recorder) *obs.Snapshot {
	if rec == nil {
		return nil
	}
	snap := &obs.Snapshot{
		Method: "SVC",
		Status: res.Status.String(),
		SVC: &obs.SVCSnap{
			Splits:        res.Stats.Splits,
			TheoryAsserts: res.Stats.TheoryAsserts,
		},
		Timings: obs.DurationsToTimings(0, 0, res.Stats.Total),
	}
	if res.Err != nil {
		snap.Error = res.Err.Error()
	}
	return snap.Finish(rec)
}

// flatten rewrites every atom into a Boolean combination of ground atoms by
// expanding ITE leaves: T1 ⋈ T2 becomes ∨_{i,j} (c1_i ∧ c2_j ∧ g_i ⋈ g_j).
// Ground predicates over identical constants or involving V_p constants are
// folded to Boolean constants (maximal diversity), so the result's atoms
// relate two distinct general constants.
func (p *prover) flatten(f *suf.BoolExpr) (*suf.BoolExpr, error) {
	memo := make(map[*suf.BoolExpr]*suf.BoolExpr)
	var rec func(*suf.BoolExpr) (*suf.BoolExpr, error)
	rec = func(e *suf.BoolExpr) (*suf.BoolExpr, error) {
		if r, ok := memo[e]; ok {
			return r, nil
		}
		var r *suf.BoolExpr
		var err error
		switch e.Kind() {
		case suf.BTrue, suf.BFalse, suf.BPred:
			r = e
		case suf.BNot:
			l, _ := e.BoolChildren()
			if l, err = rec(l); err == nil {
				r = p.b.Not(l)
			}
		case suf.BAnd, suf.BOr:
			l, rr := e.BoolChildren()
			var fl, fr *suf.BoolExpr
			if fl, err = rec(l); err == nil {
				if fr, err = rec(rr); err == nil {
					if e.Kind() == suf.BAnd {
						r = p.b.And(fl, fr)
					} else {
						r = p.b.Or(fl, fr)
					}
				}
			}
		case suf.BEq, suf.BLt:
			t1, t2 := e.Terms()
			out := p.b.False()
			for _, l1 := range sep.GuardedLeaves(t1, p.b) {
				c1, err := rec(l1.Cond)
				if err != nil {
					return nil, err
				}
				for _, l2 := range sep.GuardedLeaves(t2, p.b) {
					c2, err := rec(l2.Cond)
					if err != nil {
						return nil, err
					}
					g, err := p.groundAtom(e.Kind(), l1.G, l2.G)
					if err != nil {
						return nil, err
					}
					out = p.b.Or(out, p.b.AndN(c1, c2, g))
				}
			}
			r = out
		}
		if err != nil {
			return nil, err
		}
		memo[e] = r
		return r, nil
	}
	return rec(f)
}

func (p *prover) groundAtom(kind suf.BoolKind, g1, g2 sep.Ground) (*suf.BoolExpr, error) {
	if g1.Var == g2.Var {
		if kind == suf.BEq {
			return p.b.Const(g1.Off == g2.Off), nil
		}
		return p.b.Const(g1.Off < g2.Off), nil
	}
	if p.info.PConsts[g1.Var] || p.info.PConsts[g2.Var] {
		if kind == suf.BEq {
			return p.b.False(), nil
		}
		return nil, fmt.Errorf("svc: V_p constant under <")
	}
	if kind == suf.BEq {
		return p.b.Eq(p.b.Sym(g1.Var), p.b.Offset(p.b.Sym(g2.Var), g2.Off-g1.Off)), nil
	}
	return p.b.Lt(p.b.Sym(g1.Var), p.b.Offset(p.b.Sym(g2.Var), g2.Off-g1.Off)), nil
}

// satisfiable decides whether f has a model extending the constraints
// currently asserted in the theory solver.
func (p *prover) satisfiable(f *suf.BoolExpr) (bool, error) {
	if err := p.ctx.Err(); err != nil {
		return false, fmt.Errorf("svc: %w", err)
	}
	switch f.Kind() {
	case suf.BTrue:
		return true, nil
	case suf.BFalse:
		return false, nil
	}
	atom := pickAtom(f)
	if atom == nil {
		return false, fmt.Errorf("svc: no atom in non-constant formula %v", f)
	}
	p.stats.Splits++

	// Try each truth value of the atom: assert the corresponding theory
	// constraints, substitute and recurse.
	for _, val := range [2]bool{true, false} {
		mark := p.th.Len()
		branches, ok := p.assertAtom(atom, val)
		if !ok {
			p.th.PopTo(mark) // drop partial asserts of this branch
			continue         // theory-inconsistent branch
		}
		for _, extra := range branches {
			sub := substitute(p.b, f, atom, val)
			sat, err := p.satisfiableUnder(sub, extra)
			if err != nil {
				return false, err
			}
			if sat {
				return true, nil
			}
		}
		p.th.PopTo(mark)
	}
	return false, nil
}

// satisfiableUnder recurses with an optional additional constraint (used for
// the two halves of a disequality split).
func (p *prover) satisfiableUnder(f *suf.BoolExpr, extra *difflogic.Constraint) (bool, error) {
	if extra == nil {
		return p.satisfiable(f)
	}
	mark := p.th.Len()
	p.stats.TheoryAsserts++
	if confl := p.th.Assert(*extra); confl != nil {
		return false, nil
	}
	sat, err := p.satisfiable(f)
	if !sat {
		p.th.PopTo(mark)
	}
	return sat, err
}

// assertAtom asserts the constraints corresponding to atom=val. For a
// disequality (eq=false) it cannot assert a single difference constraint and
// instead returns the two disjunctive halves as extra constraints for the
// caller to branch on. ok=false means the branch is already inconsistent.
func (p *prover) assertAtom(atom *suf.BoolExpr, val bool) (branches []*difflogic.Constraint, ok bool) {
	if atom.Kind() == suf.BPred {
		// Symbolic Boolean constant: no theory content; substitution below
		// fixes its value consistently across the branch because the
		// substituted formula is what we recurse on.
		return []*difflogic.Constraint{nil}, true
	}
	t1, t2 := atom.Terms()
	g1, g2 := sep.DecomposeGround(t1), sep.DecomposeGround(t2)
	d := int64(g2.Off - g1.Off)
	assert := func(c difflogic.Constraint) bool {
		p.stats.TheoryAsserts++
		return p.th.Assert(c) == nil
	}
	switch {
	case atom.Kind() == suf.BEq && val:
		if !assert(difflogic.Constraint{X: g1.Var, Y: g2.Var, C: d}) {
			return nil, false
		}
		if !assert(difflogic.Constraint{X: g2.Var, Y: g1.Var, C: -d}) {
			return nil, false
		}
		return []*difflogic.Constraint{nil}, true
	case atom.Kind() == suf.BEq && !val:
		// x ≠ y+d splits into x ≤ y+d−1 ∨ y+d ≤ x−1.
		return []*difflogic.Constraint{
			{X: g1.Var, Y: g2.Var, C: d - 1},
			{X: g2.Var, Y: g1.Var, C: -d - 1},
		}, true
	case val: // x < y+d
		if !assert(difflogic.Constraint{X: g1.Var, Y: g2.Var, C: d - 1}) {
			return nil, false
		}
		return []*difflogic.Constraint{nil}, true
	default: // ¬(x < y+d) ⟺ y+d ≤ x
		if !assert(difflogic.Constraint{X: g2.Var, Y: g1.Var, C: -d}) {
			return nil, false
		}
		return []*difflogic.Constraint{nil}, true
	}
}

// pickAtom returns the first ground atom or Boolean constant symbol of f in
// DFS order.
func pickAtom(f *suf.BoolExpr) *suf.BoolExpr {
	switch f.Kind() {
	case suf.BEq, suf.BLt, suf.BPred:
		return f
	case suf.BNot:
		l, _ := f.BoolChildren()
		return pickAtom(l)
	case suf.BAnd, suf.BOr:
		l, r := f.BoolChildren()
		if a := pickAtom(l); a != nil {
			return a
		}
		return pickAtom(r)
	}
	return nil
}

// substitute replaces every occurrence of atom in f by the constant val and
// re-simplifies.
func substitute(b *suf.Builder, f, atom *suf.BoolExpr, val bool) *suf.BoolExpr {
	memo := make(map[*suf.BoolExpr]*suf.BoolExpr)
	var rec func(*suf.BoolExpr) *suf.BoolExpr
	rec = func(e *suf.BoolExpr) *suf.BoolExpr {
		if e == atom {
			return b.Const(val)
		}
		if r, ok := memo[e]; ok {
			return r
		}
		var r *suf.BoolExpr
		switch e.Kind() {
		case suf.BNot:
			l, _ := e.BoolChildren()
			r = b.Not(rec(l))
		case suf.BAnd:
			l, rr := e.BoolChildren()
			r = b.And(rec(l), rec(rr))
		case suf.BOr:
			l, rr := e.BoolChildren()
			r = b.Or(rec(l), rec(rr))
		default:
			r = e
		}
		memo[e] = r
		return r
	}
	return rec(f)
}
