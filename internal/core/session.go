// Incremental decision sessions: encode once, decide many times under
// assumptions. A Session runs the eager pipeline (funcelim → analyze →
// encode → CNF) exactly once for a formula F over guard Boolean symbols,
// then answers a stream of DecideAssuming(γ) queries — each fixing some
// guards true/false — against the same warm SAT solver via
// sat.SolveAssume, retaining learnt clauses between queries.
//
// Soundness of reuse: DecideAssuming(γ) decides validity of F[γ], the
// formula with the guards substituted. Fixing Boolean symbols only removes
// atoms, and both encoders' sufficiency arguments are monotone in the atom
// set — the SD domain sizes and EIJ constraint set computed for F remain
// sufficient for every F[γ] — so UNSAT(F_trans ∧ ¬F_bvar ∧ γ) still
// coincides with validity of F[γ]. Learnt clauses are implied by the clause
// database alone (assumptions enter CDCL as pseudo-decisions, never as
// clauses), so carrying them across queries is sound too; that retention is
// what makes a BMC unrolling stream on one session beat N cold pipelines.
package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"sufsat/internal/sat"
	"sufsat/internal/suf"
)

// boolSymVarPrefix is the name prefix under which the encoders register
// symbolic Boolean constants in the CNF's variable map (see enc.enc and
// extractModel, which share the convention).
const boolSymVarPrefix = "sb!"

// Session is an open incremental decision session. It is not safe for
// concurrent use; serialize DecideAssuming calls. Close releases the solver.
type Session struct {
	opts Options
	query

	// encodeStats carries the pipeline measurements of the one-time prepare;
	// every Result this session produces starts from a copy.
	encodeStats Stats
	queries     int
	closed      bool
}

// OpenSession runs prepare, the pipeline DecideCtx runs up to (but not
// including) the SAT search, and returns a warm session: validity of F[γ]
// ⟺ UNSAT(F_trans ∧ ¬F_bvar ∧ γ). The Options govern the encoding and
// per-query solving (method, SEP_THOLD, budgets, SolverWorkers, Hook,
// Telemetry); Timeout bounds OpenSession and each DecideAssuming call, not
// the whole session. A pipeline failure (cancellation, budget, analysis
// error) is returned as the same classified error DecideCtx would put in
// Result.Err.
func OpenSession(ctx context.Context, f *suf.BoolExpr, b *suf.Builder, opts Options) (*Session, error) {
	ctx, cancel := withTimeout(ctx, opts.Timeout)
	defer cancel()
	s := &Session{opts: opts}
	q, err := prepare(ctx, f, b, opts, &s.encodeStats)
	if err != nil {
		_, err = Classify(err)
		return nil, err
	}
	s.query = q
	return s, nil
}

// HasGuard reports whether the named symbolic Boolean constant is present in
// the encoded query. A guard the encoding simplified away (the formula's
// truth provably does not depend on it) is absent and DecideAssuming ignores
// assumptions on it — soundly, since the simplifications preserve
// equivalence.
func (s *Session) HasGuard(name string) bool {
	_, ok := s.cnf.VarLits[boolSymVarPrefix+name]
	return ok
}

// Queries returns how many DecideAssuming calls the session has served.
func (s *Session) Queries() int { return s.queries }

// EncodeTime returns the one-time pipeline cost paid by OpenSession.
func (s *Session) EncodeTime() time.Duration { return s.encodeStats.EncodeTime }

// Decide answers the unrestricted query (no assumptions).
func (s *Session) Decide(ctx context.Context) *Result {
	return s.DecideAssuming(ctx, nil)
}

// DecideAssuming decides the validity of F with the named symbolic Boolean
// constants fixed to the given values, reusing the session's encoding and
// solver. Names are resolved against the encoded query; assumptions on
// symbols the encoding eliminated are skipped (see HasGuard). The verdict is
// conditional: an Unsat under assumptions leaves the solver warm for the
// next query, with all learnt clauses retained.
func (s *Session) DecideAssuming(ctx context.Context, assume map[string]bool) *Result {
	start := time.Now()
	res := &Result{Stats: s.encodeStats}
	res.Stats.EncodeTime = 0 // paid once by OpenSession, not by this query
	if s.closed {
		res.Status = Error
		res.Err = errors.New("core: session is closed")
		return res
	}
	ctx, cancel := withTimeout(ctx, s.opts.Timeout)
	defer cancel()

	// Sorted iteration keeps the assumption order (hence the search)
	// deterministic for a given query.
	names := make([]string, 0, len(assume))
	for n := range assume {
		names = append(names, n)
	}
	sort.Strings(names)
	assumps := make([]sat.Lit, 0, len(names))
	for _, n := range names {
		l, ok := s.cnf.VarLits[boolSymVarPrefix+n]
		if !ok {
			continue
		}
		if !assume[n] {
			l = l.Not()
		}
		assumps = append(assumps, l)
	}

	s.queries++
	s.solve(ctx, s.opts, assumps, res)
	res.Stats.TotalTime = time.Since(start)
	res.Telemetry = res.snapshot(s.opts.Telemetry, s.opts.Method)
	return res
}

// Close releases the session. Further DecideAssuming calls return an Error
// result. Close is idempotent.
func (s *Session) Close() {
	s.closed = true
	s.query = query{}
}
