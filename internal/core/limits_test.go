package core

import (
	"reflect"
	"testing"
	"time"
)

func TestClampZeroLimitsTouchNothing(t *testing.T) {
	o := Options{Timeout: time.Hour, SolverWorkers: 99, MaxCNFClauses: 7}
	want := o
	if got := (Limits{}).Clamp(&o); got != nil {
		t.Errorf("zero limits clamped %v", got)
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("zero limits changed options: %+v want %+v", o, want)
	}
}

func TestClampTightensOversized(t *testing.T) {
	l := Limits{
		MaxTimeout:        time.Second,
		MaxSolverWorkers:  4,
		MaxTransClauses:   100,
		MaxCNFClauses:     200,
		MaxConflicts:      300,
		MaxMemoryEstimate: 400,
	}
	o := Options{
		Timeout:           time.Minute,
		SolverWorkers:     16,
		MaxTransClauses:   1000,
		MaxCNFClauses:     2000,
		MaxConflicts:      3000,
		MaxMemoryEstimate: 4000,
	}
	got := l.Clamp(&o)
	want := []string{"timeout", "solver_workers", "max_trans_clauses",
		"max_cnf_clauses", "max_conflicts", "max_memory_estimate"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped fields %v want %v", got, want)
	}
	if o.Timeout != time.Second || o.SolverWorkers != 4 ||
		o.MaxTransClauses != 100 || o.MaxCNFClauses != 200 ||
		o.MaxConflicts != 300 || o.MaxMemoryEstimate != 400 {
		t.Errorf("options not tightened to ceilings: %+v", o)
	}
}

func TestClampRaisesUnsetBudgets(t *testing.T) {
	// An unset budget means "unlimited", so a ceiling must pull it down;
	// conforming values stay put.
	l := Limits{MaxTimeout: time.Second, MaxCNFClauses: 200}
	o := Options{MaxConflicts: 5} // no ceiling for conflicts here
	got := l.Clamp(&o)
	want := []string{"timeout", "max_cnf_clauses"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clamped fields %v want %v", got, want)
	}
	if o.Timeout != time.Second || o.MaxCNFClauses != 200 || o.MaxConflicts != 5 {
		t.Errorf("unset budgets not raised to ceilings: %+v", o)
	}
}

func TestClampSolverWorkersDownwardOnly(t *testing.T) {
	// Zero SolverWorkers means "sequential", not "unlimited": a ceiling must
	// never raise it.
	l := Limits{MaxSolverWorkers: 8}
	o := Options{}
	if got := l.Clamp(&o); got != nil {
		t.Errorf("clamped %v on a sequential request", got)
	}
	if o.SolverWorkers != 0 {
		t.Errorf("ceiling raised SolverWorkers to %d", o.SolverWorkers)
	}
	o = Options{SolverWorkers: 3}
	if got := l.Clamp(&o); got != nil || o.SolverWorkers != 3 {
		t.Errorf("conforming SolverWorkers changed: %v -> %d", got, o.SolverWorkers)
	}
}

func TestClampIdempotent(t *testing.T) {
	l := Limits{MaxTimeout: time.Second, MaxCNFClauses: 10, MaxSolverWorkers: 2}
	o := Options{Timeout: time.Minute, MaxCNFClauses: 99, SolverWorkers: 5}
	l.Clamp(&o)
	after := o
	if got := l.Clamp(&o); got != nil {
		t.Errorf("second clamp changed %v", got)
	}
	if !reflect.DeepEqual(o, after) {
		t.Errorf("second clamp changed options: %+v want %+v", o, after)
	}
}
