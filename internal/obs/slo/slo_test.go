package slo

import (
	"strings"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/history"
)

// rig is one test fixture: registry + manually-driven history + engine.
type rig struct {
	reg    *obs.Registry
	hist   *history.History
	flight *obs.FlightRecorder
	eng    *Engine
}

func newRig(t *testing.T, objectives []Objective, cfg Config) *rig {
	t.Helper()
	r := &rig{
		reg:    obs.NewRegistry(),
		flight: obs.NewFlightRecorder(64),
	}
	r.hist = history.New(r.reg, history.Config{Slots: 64})
	r.eng = New(r.reg, r.hist, r.flight, "t", objectives, cfg)
	if r.eng == nil {
		t.Fatal("New returned nil engine")
	}
	return r
}

// tick takes a snapshot and re-evaluates — one collector cycle.
func (r *rig) tick() {
	r.hist.Snap()
	r.eng.Evaluate()
}

func (r *rig) status(t *testing.T, name string) Status {
	t.Helper()
	for _, s := range r.eng.Status() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("objective %q not in Status()", name)
	return Status{}
}

// gaugeValue reads one registered sample by name + label substring.
func (r *rig) gaugeValue(name, labelSub string) (float64, bool) {
	var v float64
	ok := false
	r.reg.VisitSamples(func(s obs.SampleInfo) {
		if s.Name == name && strings.Contains(s.Labels, labelSub) {
			v, ok = s.Value, true
		}
	})
	return v, ok
}

// flightKinds returns the kinds of recorded flight events, oldest first.
func (r *rig) flightKinds() []string {
	var out []string
	for _, e := range r.flight.Events() {
		out = append(out, e.Kind)
	}
	return out
}

func TestNilEngine(t *testing.T) {
	if e := New(obs.NewRegistry(), nil, nil, "t", ServerObjectives(0, 0, true), Config{}); e != nil {
		t.Fatal("nil history should yield nil engine")
	}
	reg := obs.NewRegistry()
	h := history.New(reg, history.Config{Slots: 8})
	if e := New(reg, h, nil, "t", nil, Config{}); e != nil {
		t.Fatal("no objectives should yield nil engine")
	}
	var e *Engine
	e.Evaluate()
	e.OnBurn(func(string) {})
	if e.Status() != nil || e.Burning() != nil {
		t.Fatal("nil engine should report nothing")
	}
}

func TestObjectiveValidation(t *testing.T) {
	reg := obs.NewRegistry()
	h := history.New(reg, history.Config{Slots: 8})
	mustPanic := func(name string, objs []Objective) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(reg, h, nil, "t", objs, Config{})
	}
	mustPanic("empty name", []Objective{{Kind: ErrorRatio, Budget: 0.1}})
	mustPanic("no budget", []Objective{{Name: "x", Kind: ErrorRatio}})
	// Zero objectives need no budget.
	New(reg, h, nil, "tz", []Objective{{Name: "z", Kind: Zero, Bad: []Selector{{Family: "f"}}}}, Config{})
}

// TestLatencyBurnAndClear drives the full state machine: no-data until the
// window spans two snapshots, burning when the bad fraction blows the budget
// on both windows, ok again when the fast window recovers — with the metric
// families, flight events and OnBurn callback firing on each edge.
func TestLatencyBurnAndClear(t *testing.T) {
	obj := Objective{
		Name:             "latency-p95",
		Kind:             Latency,
		Family:           "t_dur_seconds",
		ThresholdSeconds: 0.1,
		Budget:           0.05,
	}
	r := newRig(t, []Objective{obj}, Config{FastWindow: time.Minute, SlowWindow: time.Hour})
	hist := r.reg.Histogram("t_dur_seconds", "h", []float64{0.1, 1})

	var burns []string
	r.eng.OnBurn(func(name string) { burns = append(burns, name) })

	r.tick()
	if st := r.status(t, "latency-p95"); st.State != "no-data" {
		t.Fatalf("before data: state = %s, want no-data", st.State)
	}

	// Every observation above the threshold: bad fraction 1.0, burn 20x.
	for i := 0; i < 100; i++ {
		hist.Observe(0.5)
	}
	r.tick()
	st := r.status(t, "latency-p95")
	if st.State != "burning" || st.Transitions != 1 {
		t.Fatalf("after slow flood: %+v, want burning with 1 transition", st)
	}
	if st.FastBurn < 19 || st.SlowBurn < 19 {
		t.Fatalf("burn rates = %v/%v, want ~20", st.FastBurn, st.SlowBurn)
	}
	if got := r.eng.Burning(); len(got) != 1 || got[0] != "latency-p95" {
		t.Fatalf("Burning() = %v", got)
	}
	if len(burns) != 1 || burns[0] != "latency-p95" {
		t.Fatalf("OnBurn calls = %v, want one", burns)
	}
	if v, ok := r.gaugeValue("t_slo_burning", `slo="latency-p95"`); !ok || v != 1 {
		t.Fatalf("t_slo_burning = %v, %v; want 1", v, ok)
	}

	// Flood with fast requests: the windowed bad fraction drops below budget.
	for i := 0; i < 100000; i++ {
		hist.Observe(0.01)
	}
	r.tick()
	st = r.status(t, "latency-p95")
	if st.State != "ok" || st.Transitions != 2 {
		t.Fatalf("after recovery: %+v, want ok with 2 transitions", st)
	}
	if len(burns) != 1 {
		t.Fatalf("OnBurn fired on recovery: %v", burns)
	}
	if v, _ := r.gaugeValue("t_slo_burning", `slo="latency-p95"`); v != 0 {
		t.Fatalf("t_slo_burning after recovery = %v, want 0", v)
	}

	kinds := r.flightKinds()
	if len(kinds) != 2 || kinds[0] != "slo-burn" || kinds[1] != "slo-clear" {
		t.Fatalf("flight events = %v, want [slo-burn slo-clear]", kinds)
	}
}

// TestErrorRatio pins the bad/total math and the zero-traffic rule.
func TestErrorRatio(t *testing.T) {
	obj := Objective{
		Name:   "availability",
		Kind:   ErrorRatio,
		Bad:    []Selector{{Family: "t_shed_total"}},
		Total:  []Selector{{Family: "t_reqs_total"}, {Family: "t_shed_total"}},
		Budget: 0.01,
	}
	r := newRig(t, []Objective{obj}, Config{FastWindow: time.Minute, SlowWindow: time.Hour})
	shed := r.reg.Counter("t_shed_total", "h")
	reqs := r.reg.Counter("t_reqs_total", "h")

	r.tick()
	r.tick() // two snapshots, zero traffic
	if st := r.status(t, "availability"); st.State != "ok" || st.FastBurn != 0 {
		t.Fatalf("zero traffic: %+v, want ok at burn 0", st)
	}

	// 5 sheds per 100 served: bad fraction 5/105, burn ≈ 4.76.
	reqs.Add(100)
	shed.Add(5)
	r.tick()
	st := r.status(t, "availability")
	if st.State != "burning" {
		t.Fatalf("after sheds: %+v, want burning", st)
	}
	want := (5.0 / 105.0) / 0.01
	if st.FastBurn < want-0.1 || st.FastBurn > want+0.1 {
		t.Fatalf("burn = %v, want ≈ %v", st.FastBurn, want)
	}
}

// TestAvailabilityDenominators pins the denominators of the canned
// availability objectives: a router that sheds every request, each also
// counted in sufrouter_requests_total, reads a bad fraction of 1; a server
// with 10 contained panics in 100 decisions, each also counted as an
// "error" response, reads 10/100.
func TestAvailabilityDenominators(t *testing.T) {
	cfg := Config{FastWindow: time.Minute, SlowWindow: time.Hour}
	check := func(r *rig, wantFrac float64) {
		t.Helper()
		st := r.status(t, "availability")
		if want := wantFrac / st.Budget; st.FastBurn < want*0.999 || st.FastBurn > want*1.001 {
			t.Errorf("availability burn = %v, want %v (bad fraction %v)", st.FastBurn, want, wantFrac)
		}
	}

	rt := newRig(t, RouterObjectives(0, 0), cfg)
	sheds := rt.reg.Counter("sufrouter_sheds_total", "h", "reason", "backends-open")
	shedReqs := rt.reg.Counter("sufrouter_requests_total", "h", "status", "shed")
	rt.tick()
	rt.tick()
	sheds.Add(50)
	shedReqs.Add(50)
	rt.tick()
	check(rt, 1)

	srv := newRig(t, ServerObjectives(0, 0, false), cfg)
	valid := srv.reg.Counter("sufsat_requests_total", "h", "status", "valid")
	errs := srv.reg.Counter("sufsat_requests_total", "h", "status", "error")
	panics := srv.reg.Counter("sufsat_panics_total", "h")
	srv.reg.Counter("sufsat_shed_total", "h", "reason", "queue_full")
	srv.tick()
	srv.tick()
	valid.Add(90)
	errs.Add(10)
	panics.Add(10)
	srv.tick()
	check(srv, 0.10)
}

// TestZeroObjective pins the invariant kind: any increase is a full burn.
func TestZeroObjective(t *testing.T) {
	obj := Objective{
		Name: "panic-zero",
		Kind: Zero,
		Bad:  []Selector{{Family: "t_panics_total"}},
	}
	r := newRig(t, []Objective{obj}, Config{FastWindow: time.Minute, SlowWindow: time.Hour})
	panics := r.reg.Counter("t_panics_total", "h")

	r.tick()
	r.tick()
	if st := r.status(t, "panic-zero"); st.State != "ok" {
		t.Fatalf("no panics: %+v, want ok", st)
	}
	panics.Inc()
	r.tick()
	if st := r.status(t, "panic-zero"); st.State != "burning" || st.FastBurn != 1 {
		t.Fatalf("after a panic: %+v, want burning at burn 1", st)
	}
}

// TestDefaultObjectives sanity-checks the canned sets.
func TestDefaultObjectives(t *testing.T) {
	withCache := ServerObjectives(0, 0, true)
	noCache := ServerObjectives(0, 0, false)
	if len(withCache) != len(noCache)+1 {
		t.Fatalf("cache objective not gated: %d vs %d", len(withCache), len(noCache))
	}
	for _, objs := range [][]Objective{withCache, RouterObjectives(0, 0)} {
		for _, o := range objs {
			if len(o.Name) > 16 {
				t.Errorf("objective name %q exceeds the flight-recorder string field", o.Name)
			}
			if o.Kind != Zero && o.Budget <= 0 {
				t.Errorf("objective %q has no budget", o.Name)
			}
		}
	}
	// The canned sets must register cleanly (names, label sets).
	reg := obs.NewRegistry()
	h := history.New(reg, history.Config{Slots: 8})
	if e := New(reg, h, nil, "sufsat", withCache, Config{}); e == nil {
		t.Fatal("ServerObjectives failed to build an engine")
	}
	reg2 := obs.NewRegistry()
	h2 := history.New(reg2, history.Config{Slots: 8})
	if e := New(reg2, h2, nil, "sufrouter", RouterObjectives(0, 0), Config{}); e == nil {
		t.Fatal("RouterObjectives failed to build an engine")
	}
}
