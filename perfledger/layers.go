package main

import (
	"context"
	"fmt"
	"time"

	"sufsat/internal/boolexpr"
	"sufsat/internal/core"
	"sufsat/internal/enc"
	"sufsat/internal/funcelim"
	"sufsat/internal/obs"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/smalldomain"
	"sufsat/internal/suf"
)

// layerTotals accumulates the seconds spent in each layer's public entry
// point and the work it did, for one formula or summed over several.
type layerTotals struct {
	FuncelimS, AnalyzeS, EncS, TransS, CNFS, SATS float64

	FuncApps, SepPreds, Classes, SDClasses, BoolNodes int64
	TransClauses, CNFVars, CNFClauses                 int64
	Conflicts, Propagations, Decisions                int64
}

// sumS is the traced time of all layers.
func (t *layerTotals) sumS() float64 {
	return t.FuncelimS + t.AnalyzeS + t.EncS + t.TransS + t.CNFS + t.SATS
}

// add adds o's seconds and counts to t.
func (t *layerTotals) add(o layerTotals) {
	t.FuncelimS += o.FuncelimS
	t.AnalyzeS += o.AnalyzeS
	t.EncS += o.EncS
	t.TransS += o.TransS
	t.CNFS += o.CNFS
	t.SATS += o.SATS
	t.FuncApps += o.FuncApps
	t.SepPreds += o.SepPreds
	t.Classes += o.Classes
	t.SDClasses += o.SDClasses
	t.BoolNodes += o.BoolNodes
	t.TransClauses += o.TransClauses
	t.CNFVars += o.CNFVars
	t.CNFClauses += o.CNFClauses
	t.Conflicts += o.Conflicts
	t.Propagations += o.Propagations
	t.Decisions += o.Decisions
}

// layerResult is what decideLayers reports for one formula, for comparison
// with core.DecideCtx.
type layerResult struct {
	Status     sat.Status
	CNFVars    int
	CNFClauses int
}

// decideLayers decides f the way core.DecideCtx does for HYBRID with the
// default SEP_THOLD, one SAT worker and no budgets, but one public layer call
// at a time, each wrapped in a span of rec and timed into acc:
// funcelim.Eliminate → sep.Analyze → enc.Walker.Encode (SD and EIJ atom
// callbacks timed apart) → perconstraint.Encoder.TransClauseList →
// boolexpr.AssertTrue plus the transitivity clauses → sat.Solver.Solve.
// Model extraction is left out; it is part of core.residual_s.
func decideLayers(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, rec *obs.Recorder, acc *layerTotals) (layerResult, error) {
	var res layerResult
	layer := func(name string, into *float64, fn func(sp *obs.Span)) {
		sp := rec.StartSpan(name)
		t0 := time.Now()
		fn(sp)
		*into += time.Since(t0).Seconds()
		sp.End()
	}

	var elim *funcelim.Result
	layer("funcelim", &acc.FuncelimS, func(sp *obs.Span) {
		elim = funcelim.Eliminate(f, b)
		sp.AttrInt("func_apps", elim.NumApps)
	})
	acc.FuncApps += int64(elim.NumApps)

	var info *sep.Info
	var err error
	layer("analyze", &acc.AnalyzeS, func(sp *obs.Span) {
		info, err = sep.Analyze(elim.Formula, b, elim.PConsts)
		if err == nil {
			sp.AttrInt("sep_preds", info.NumSepPreds).AttrInt("classes", len(info.Classes))
		}
	})
	if err != nil {
		return res, fmt.Errorf("analyze: %w", err)
	}
	acc.SepPreds += int64(info.NumSepPreds)
	acc.Classes += int64(len(info.Classes))

	bb := boolexpr.NewBuilder()
	var eijEnc *perconstraint.Encoder
	var bvar *boolexpr.Node
	layer("encode", &acc.EncS, func(sp *obs.Span) {
		sdEnc := smalldomain.NewEncoder(info, b, bb)
		eijEnc = perconstraint.NewEncoder(info, b, bb)
		sdEnc.Ctx, eijEnc.Ctx = ctx, ctx
		var sdS, eijS float64
		atom := func(a *suf.BoolExpr) (*boolexpr.Node, error) {
			encode, into := eijEnc.EncodeAtom, &eijS
			if cl := atomClass(info, a); cl != nil && cl.SepCnt > core.DefaultSepThreshold {
				encode, into = sdEnc.EncodeAtom, &sdS
			}
			t0 := time.Now()
			n, err := encode(a)
			*into += time.Since(t0).Seconds()
			return n, err
		}
		w := enc.NewWalker(bb, atom)
		sdEnc.SetWalker(w)
		eijEnc.SetWalker(w)
		bvar, err = w.Encode(info.Formula)
		sdClasses := 0
		for _, cl := range info.Classes {
			if cl.SepCnt > core.DefaultSepThreshold {
				sdClasses++
			}
		}
		acc.SDClasses += int64(sdClasses)
		acc.BoolNodes += int64(bb.NumNodes())
		sp.AttrInt("sd_classes", sdClasses).AttrInt("bool_nodes", bb.NumNodes()).
			AttrFloat("sd_ms", sdS*1e3).AttrFloat("eij_ms", eijS*1e3)
	})
	if err != nil {
		return res, fmt.Errorf("encode: %w", err)
	}

	var clauses []perconstraint.TransClause
	layer("trans", &acc.TransS, func(sp *obs.Span) {
		clauses, err = eijEnc.TransClauseList()
		sp.AttrInt("trans_clauses", len(clauses))
	})
	if err != nil {
		return res, fmt.Errorf("transitivity: %w", err)
	}
	acc.TransClauses += int64(len(clauses))

	solver := sat.New()
	solver.Ctx = ctx
	layer("cnf", &acc.CNFS, func(sp *obs.Span) {
		cnf := boolexpr.AssertTrue(bb.Not(bvar), solver)
		lits := make([]sat.Lit, 0, 3)
		for _, cl := range clauses {
			lits = lits[:0]
			for _, tl := range cl {
				l, ok := cnf.VarLits[tl.Var.Name()]
				if !ok {
					l = sat.PosLit(solver.NewVar())
					cnf.VarLits[tl.Var.Name()] = l
				}
				if tl.Neg {
					l = l.Not()
				}
				lits = append(lits, l)
			}
			solver.AddClause(lits...)
		}
		sp.AttrInt("vars", solver.Stats().Vars).AttrInt("cnf_clauses", solver.Stats().Clauses)
	})
	res.CNFVars, res.CNFClauses = solver.Stats().Vars, solver.Stats().Clauses
	acc.CNFVars += int64(res.CNFVars)
	acc.CNFClauses += int64(res.CNFClauses)

	layer("sat", &acc.SATS, func(sp *obs.Span) {
		res.Status = solver.Solve()
		sp.AttrStr("verdict", res.Status.String()).AttrInt64("conflicts", solver.Stats().Conflicts)
	})
	st := solver.Stats()
	acc.Conflicts += st.Conflicts
	acc.Propagations += st.Propagations
	acc.Decisions += st.Decisions
	return res, nil
}

// atomClass returns the class of the atom's general constants (nil when it
// has none), the routing key of HYBRID; all general leaves of one atom share
// a class by construction. It mirrors core's unexported helper, since the
// driver may only call the layers' public functions.
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
