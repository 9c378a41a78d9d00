package sufsat

import (
	"context"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/tsys"
)

// System is a term-level transition system — the UCLID-style modeling layer
// the paper's logic was designed for. State variables are updated by SUF
// expressions over the current state and per-step symbolic inputs; safety
// properties are checked by bounded model checking or inductive invariant
// checking, both reducing to SUF validity queries.
//
//	b := sufsat.NewBuilder()
//	sys := sufsat.NewSystem(b)
//	nt := sys.IntVar("next_ticket")
//	ns := sys.IntVar("now_serving")
//	acq := sys.BoolInput("acquire")
//	sys.SetNext("next_ticket", b.Ite(acq, nt.Succ(), nt))
//	...
//	res, err := sys.CheckInductive(b.Le(ns, nt), sufsat.Options{})
type System struct {
	s *tsys.System
	b *Builder
}

// NewSystem returns an empty transition system over b.
func NewSystem(b *Builder) *System {
	return &System{s: tsys.NewSystem(b.sb), b: b}
}

// IntVar declares an integer state variable and returns its current-state
// term.
func (s *System) IntVar(name string) Term { return s.b.term(s.s.IntVar(name)) }

// BoolVar declares a Boolean state variable and returns its current-state
// formula.
func (s *System) BoolVar(name string) Formula { return s.b.form(s.s.BoolVar(name)) }

// IntInput declares an integer input, fresh every step.
func (s *System) IntInput(name string) Term { return s.b.term(s.s.IntInput(name)) }

// BoolInput declares a Boolean input, fresh every step.
func (s *System) BoolInput(name string) Formula { return s.b.form(s.s.BoolInput(name)) }

// SetNext defines the next-state expression of an integer state variable.
func (s *System) SetNext(name string, e Term) {
	s.b.checkT(e)
	s.s.SetNext(name, e.t)
}

// SetNextBool defines the next-state expression of a Boolean state variable.
func (s *System) SetNextBool(name string, e Formula) {
	s.b.checkF(e)
	s.s.SetNextBool(name, e.f)
}

// SetInit constrains the initial state.
func (s *System) SetInit(f Formula) {
	s.b.checkF(f)
	s.s.SetInit(f.f)
}

// TraceStep is one step of a BMC counterexample execution: state-variable
// values on entry and input values consumed.
type TraceStep struct {
	Ints   map[string]int64
	Bools  map[string]bool
	InInts map[string]int64
	InBool map[string]bool
}

// CheckOutcome is the result of a system property check.
type CheckOutcome struct {
	// Holds reports whether the property was proved.
	Holds bool
	// Step is the first violated depth for a failed BMC (-1 otherwise).
	Step int
	// Counterexample is the violating interpretation for failed checks.
	Counterexample *Counterexample
	// Trace is the concrete execution of a failed BMC: Trace[j] is the state
	// entering step j, ending at the violating state.
	Trace []TraceStep
	// Timeout reports that a resource limit was hit instead of an answer.
	Timeout bool
}

func outcome(r *tsys.CheckResult) *CheckOutcome {
	out := &CheckOutcome{Holds: r.Holds, Step: r.Step, Timeout: !r.Status.Definitive()}
	if r.Model != nil {
		out.Counterexample = &Counterexample{m: r.Model}
	}
	for _, st := range r.Trace {
		out.Trace = append(out.Trace, TraceStep(st))
	}
	return out
}

func sysOpts(opts Options) core.Options {
	t := opts.Timeout
	if t == 0 {
		t = time.Hour
	}
	o := tsys.DefaultOptions(t)
	o.SepThreshold = opts.SepThreshold
	if opts.MaxTransClauses != 0 {
		o.MaxTransClauses = opts.MaxTransClauses
	}
	return o
}

// CheckInductive verifies that prop is an inductive invariant of the system:
// implied by the initial constraint and preserved by every step.
func (s *System) CheckInductive(prop Formula, opts Options) (*CheckOutcome, error) {
	s.b.checkF(prop)
	r, err := s.s.CheckInductive(prop.f, sysOpts(opts))
	if err != nil {
		return nil, err
	}
	return outcome(r), nil
}

// BMC checks the safety property at every step up to depth, unrolling the
// system functionally; it reports the first violated depth.
func (s *System) BMC(prop Formula, depth int, opts Options) (*CheckOutcome, error) {
	s.b.checkF(prop)
	r, err := s.s.BMC(prop.f, depth, sysOpts(opts))
	if err != nil {
		return nil, err
	}
	return outcome(r), nil
}

// BMCIncremental is BMC on one incremental solver session: the whole
// unrolling is encoded once as a guard-indexed conjunction and each depth is
// answered by an assumption query on the same warm solver, sharing the
// encoding and every learnt clause across depths (see Session). It returns
// the same outcomes as BMC; prefer it when sweeping more than a couple of
// depths of a nontrivial system.
func (s *System) BMCIncremental(prop Formula, depth int, opts Options) (*CheckOutcome, error) {
	return s.BMCIncrementalContext(context.Background(), prop, depth, opts)
}

// BMCIncrementalContext is BMCIncremental under a caller context: cancelling
// ctx aborts the in-progress depth and returns a Timeout outcome.
func (s *System) BMCIncrementalContext(ctx context.Context, prop Formula, depth int, opts Options) (*CheckOutcome, error) {
	s.b.checkF(prop)
	r, err := s.s.BMCSession(ctx, prop.f, depth, sysOpts(opts))
	if err != nil {
		return nil, err
	}
	return outcome(r), nil
}
