package core

import (
	"time"
)

// Limits are server-enforced ceilings on per-request Options. A serving
// layer maps untrusted request fields onto Options and then applies its
// configured Limits so no single request can exceed the operator's resource
// policy: a zero ceiling leaves the corresponding option untouched, a
// non-zero ceiling clamps the option down to it, and — because an Options
// zero value means "unlimited" — an unset option is raised to the ceiling
// rather than left unbounded. The exception is SolverWorkers, whose zero
// value means "sequential": it only ever clamps downward.
type Limits struct {
	// MaxTimeout caps the wall-clock deadline of a request (0 = no ceiling).
	MaxTimeout time.Duration
	// MaxSolverWorkers caps Options.SolverWorkers (0 = no ceiling).
	MaxSolverWorkers int
	// MaxTransClauses, MaxCNFClauses, MaxConflicts and MaxMemoryEstimate cap
	// the matching Options budgets (0 = no ceiling for each).
	MaxTransClauses   int
	MaxCNFClauses     int
	MaxConflicts      int64
	MaxMemoryEstimate int64
}

// clampInt tightens *v to the ceiling max, treating 0 as unlimited on both
// sides. It reports whether *v changed.
func clampInt(v *int, max int) bool {
	if max <= 0 {
		return false
	}
	if *v <= 0 || *v > max {
		*v = max
		return true
	}
	return false
}

// clampInt64 is clampInt for int64 fields.
func clampInt64(v *int64, max int64) bool {
	if max <= 0 {
		return false
	}
	if *v <= 0 || *v > max {
		*v = max
		return true
	}
	return false
}

// clampDur is clampInt for duration fields.
func clampDur(v *time.Duration, max time.Duration) bool {
	if max <= 0 {
		return false
	}
	if *v <= 0 || *v > max {
		*v = max
		return true
	}
	return false
}

// Clamp tightens o in place to the ceilings and returns the names of the
// fields it changed (nil when o already conformed).
func (l Limits) Clamp(o *Options) []string {
	var clamped []string
	if clampDur(&o.Timeout, l.MaxTimeout) {
		clamped = append(clamped, "timeout")
	}
	// SolverWorkers only ever clamps downward: its zero value means
	// "sequential", not "unlimited", so raising it to the ceiling would
	// grant resources the caller never asked for.
	if l.MaxSolverWorkers > 0 && o.SolverWorkers > l.MaxSolverWorkers {
		o.SolverWorkers = l.MaxSolverWorkers
		clamped = append(clamped, "solver_workers")
	}
	if clampInt(&o.MaxTransClauses, l.MaxTransClauses) {
		clamped = append(clamped, "max_trans_clauses")
	}
	if clampInt(&o.MaxCNFClauses, l.MaxCNFClauses) {
		clamped = append(clamped, "max_cnf_clauses")
	}
	if clampInt64(&o.MaxConflicts, l.MaxConflicts) {
		clamped = append(clamped, "max_conflicts")
	}
	if clampInt64(&o.MaxMemoryEstimate, l.MaxMemoryEstimate) {
		clamped = append(clamped, "max_memory_estimate")
	}
	return clamped
}
