package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"sufsat/internal/core"
	"sufsat/internal/obs"
	"sufsat/internal/sat"
	"sufsat/internal/suf"
)

// decideOpts are the paper workloads' decision options: HYBRID at the default
// SEP_THOLD with one SAT worker and a 60 s limit.
var decideOpts = core.Options{Method: core.Hybrid, SolverWorkers: 1, Timeout: 60 * time.Second}

// parsed is one item parsed into its own builder (builders accumulate nodes,
// so every decision gets a fresh one).
type parsed struct {
	it item
	f  *suf.BoolExpr
	b  *suf.Builder
}

func parseAll(items []item) ([]parsed, error) {
	out := make([]parsed, len(items))
	for i, it := range items {
		b := suf.NewBuilder()
		f, err := suf.Parse(it.Text, b)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", it.Name, err)
		}
		out[i] = parsed{it, f, b}
	}
	return out, nil
}

// decideChecked decides p with core.DecideCtx, tallies the verdict into r and
// returns the decision time. An invalid verdict counts as correct only if its
// counterexample falsifies the formula.
func decideChecked(ctx context.Context, p parsed, r *result) (time.Duration, *core.Result) {
	t0 := time.Now()
	res := core.DecideCtx(ctx, p.f, p.b, decideOpts)
	d := time.Since(t0)
	r.tally(p.it.Valid, res.Status.String(), res.Model != nil && !suf.EvalBool(p.f, res.Model.Interp()))
	return d, res
}

// roundStats is what one untraced round measured.
type roundStats struct {
	allocMB float64
	peakMB  float64 // peak resident set during the round
}

// decideRound decides every item once in the given order, timing each call
// into times and keeping each result in last (either may be nil). Parsing
// and a garbage collection happen before the first call and are not timed;
// the collection keeps one round's garbage out of the next round.
func decideRound(ctx context.Context, order []item, r *result, times map[string][]float64, last map[string]*core.Result) (roundStats, error) {
	ps, err := parseAll(order)
	if err != nil {
		return roundStats{}, err
	}
	runtime.GC()
	// Writing 5 to clear_refs resets VmHWM, so the peak read after the round
	// is the round's own.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return roundStats{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rs roundStats
	for _, p := range ps {
		d, res := decideChecked(ctx, p, r)
		if times != nil {
			times[p.it.Name] = append(times[p.it.Name], float64(d.Nanoseconds())/1e6)
		}
		if last != nil {
			last[p.it.Name] = res
		}
		if err := ctx.Err(); err != nil {
			return rs, err
		}
	}
	runtime.ReadMemStats(&after)
	rs.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	rs.peakMB, err = peakRSSMB("self")
	return rs, err
}

// traceRound replays every item through decideLayers, checking each verdict,
// and keeps in best each formula's fastest replay so far.
func traceRound(ctx context.Context, order []item, rec *obs.Recorder, r *result, best map[string]layerTotals) error {
	ps, err := parseAll(order)
	if err != nil {
		return err
	}
	runtime.GC()
	for _, p := range ps {
		var lt layerTotals
		sp := rec.StartSpan("formula").AttrStr("name", p.it.Name)
		lr, err := decideLayers(ctx, p.f, p.b, rec, &lt)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p.it.Name, err)
		}
		// The layer driver extracts no model; its invalid verdicts are checked
		// against the known status only.
		r.tally(p.it.Valid, verdict(lr.Status), true)
		if b, ok := best[p.it.Name]; !ok || lt.sumS() < b.sumS() {
			best[p.it.Name] = lt
		}
	}
	return ctx.Err()
}

// attribution runs pairs of untraced and traced rounds over pop and reports
// the per-layer metrics, summed over the population from each formula's
// fastest traced replay. core.decide_s sums each formula's fastest untraced
// decision, and core.residual_s is the part of it no traced layer accounts
// for: model extraction, the facade and the cost of tracing.
func attribution(ctx context.Context, cfg config, rng *rand.Rand, pop []item, r *result, pairs int, window time.Duration) error {
	rec := obs.NewRecorder()
	times := make(map[string][]float64)
	best := make(map[string]layerTotals)
	var allocMB []float64
	start := time.Now()
	var pairWall time.Duration
	for n := 0; n < pairs || time.Since(start)+pairWall <= window; n++ {
		t0 := time.Now()
		order := shuffled(rng, pop)
		rs, err := decideRound(ctx, order, r, times, nil)
		if err != nil {
			return err
		}
		if err := traceRound(ctx, order, rec, r, best); err != nil {
			return err
		}
		allocMB = append(allocMB, rs.allocMB)
		pairWall = time.Since(t0)
	}
	if cfg.TraceOut != "" {
		if err := writeTrace(cfg.TraceOut, rec); err != nil {
			return err
		}
	}
	var c layerTotals
	decideS := 0.0
	for _, it := range pop {
		c.add(best[it.Name])
		decideS += sorted(times[it.Name])[0] / 1e3
	}
	m := r.Metrics
	m["core.decide_s"] = decideS
	m["core.residual_s"] = decideS - c.sumS()
	m["runtime.alloc_mb"] = median(allocMB)
	for name, v := range map[string]float64{
		"funcelim.s":                  c.FuncelimS,
		"sep.analyze_s":               c.AnalyzeS,
		"enc.s":                       c.EncS,
		"perconstraint.trans_s":       c.TransS,
		"boolexpr.cnf_s":              c.CNFS,
		"sat.s":                       c.SATS,
		"funcelim.func_apps":          float64(c.FuncApps),
		"sep.sep_preds":               float64(c.SepPreds),
		"sep.classes":                 float64(c.Classes),
		"enc.sd_classes":              float64(c.SDClasses),
		"enc.bool_nodes":              float64(c.BoolNodes),
		"perconstraint.trans_clauses": float64(c.TransClauses),
		"boolexpr.cnf_vars":           float64(c.CNFVars),
		"boolexpr.cnf_clauses":        float64(c.CNFClauses),
		"sat.conflicts":               float64(c.Conflicts),
		"sat.propagations":            float64(c.Propagations),
		"sat.decisions":               float64(c.Decisions),
	} {
		m[name] = v
	}
	return frontEnd(pop, r)
}

// frontEnd times suf.Parse and suf.Fingerprint on every population text in
// this process and reports the median per formula, in microseconds.
func frontEnd(pop []item, r *result) error {
	const reps = 5
	var parseUS, fpUS []float64
	for _, it := range pop {
		var ps, fs []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			f, err := suf.Parse(it.Text, suf.NewBuilder())
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("parse %s: %w", it.Name, err)
			}
			suf.Fingerprint(f)
			ps = append(ps, float64(t1.Sub(t0).Nanoseconds())/1e3)
			fs = append(fs, float64(time.Since(t1).Nanoseconds())/1e3)
		}
		parseUS = append(parseUS, median(ps))
		fpUS = append(fpUS, median(fs))
	}
	r.Metrics["suf.parse_us"] = median(parseUS)
	r.Metrics["suf.fingerprint_us"] = median(fpUS)
	return nil
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// runPaper is the in-process closed loop with one caller: an untimed warm-up
// round, then rounds in seed-shuffled order while another fits in cfg.Seconds.
// With -trace 1 the window instead alternates untimed decision rounds with
// traced replays (see attribution), and the population is then sent once
// through a fleet for the server and router metrics.
func runPaper(ctx context.Context, cfg config, w workload, pop []item) (*result, error) {
	r := newResult(w, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	setups, err := probeSetups(ctx, pop, r)
	if err != nil {
		return nil, err
	}
	if _, err := decideRound(ctx, shuffled(rng, pop), r, nil, nil); err != nil {
		return nil, err
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))

	if cfg.Trace {
		if err := attribution(ctx, cfg, rng, pop, r, 1, window); err != nil {
			return nil, err
		}
		return r, servicePass(ctx, cfg, pop, r)
	}

	times := make(map[string][]float64)
	last := make(map[string]*core.Result)
	var peaks []float64
	start := time.Now()
	var roundWall time.Duration
	for len(peaks) == 0 || time.Since(start)+roundWall <= window {
		t0 := time.Now()
		rs, err := decideRound(ctx, shuffled(rng, pop), r, times, last)
		if err != nil {
			return nil, err
		}
		roundWall = time.Since(t0)
		peaks = append(peaks, rs.peakMB)
	}

	var best []float64
	sumBest := 0.0
	for _, it := range pop {
		ts := times[it.Name]
		b := sorted(ts)[0]
		best = append(best, b)
		sumBest += b / 1e3
		res := last[it.Name]
		r.Rows = append(r.Rows, row{
			Name: it.Name, Family: it.Family, Verdict: res.Status.String(), Runs: len(ts), BestMS: b,
			MedianMS: median(ts), CNFClauses: res.Stats.CNFClauses, Conflicts: res.Stats.SAT.Conflicts,
		})
	}
	// Each formula's best time to a verdict over the run's rounds: the best
	// of repeated timings stays put on a shared host whose speed drifts by
	// tens of percent over a minute, where medians moved 12–40% between runs.
	r.Metrics["geomean_ms"] = geomean(best)
	r.Metrics["tail_ms"] = quantile(sorted(best), 0.98)
	r.Metrics["capacity_rps"] = float64(len(pop)) / sumBest
	r.Metrics["peak_rss_mb"] = median(peaks)
	r.Metrics["setup_s"] = median(setups)
	return r, nil
}

// setupProbes is how many times a run sets the system under test up.
const setupProbes = 9

// readyProbeEnv marks a child process started by probeSetups.
const readyProbeEnv = "PERFLEDGER_READY_PROBE"

// probeSetups measures the in-process set-up: a fresh process of this binary
// (runtime and package initialisation of the whole pipeline) parses and
// decides the warm-up set it reads on stdin and reports ready. It returns
// the seconds from exec to exit of each probe and tallies their verdicts.
func probeSetups(ctx context.Context, pop []item, r *result) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var warm []item
	var texts []string
	for _, i := range warmupSet(pop) {
		warm = append(warm, pop[i])
		texts = append(texts, pop[i].Text)
	}
	input, err := json.Marshal(texts)
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), readyProbeEnv+"=1")
		cmd.Stdin = bytes.NewReader(input)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		statuses := strings.Fields(string(out))
		if len(statuses) != len(warm) {
			return nil, fmt.Errorf("set-up probe reported %d verdicts for %d formulas", len(statuses), len(warm))
		}
		for j, it := range warm {
			// The probe checks its own counterexamples and marks an invalid
			// verdict whose model does not falsify the formula.
			status, bad := strings.CutSuffix(statuses[j], badModelMark)
			r.tally(it.Valid, status, !bad)
		}
	}
	return secs, nil
}

// badModelMark follows an invalid verdict whose model does not falsify the
// formula in a set-up probe's report.
const badModelMark = "!badmodel"

// verdict maps a SAT answer on F_trans ∧ ¬F_bvar to a core status string.
func verdict(s sat.Status) string {
	switch s {
	case sat.Unsat:
		return core.Valid.String()
	case sat.Sat:
		return core.Invalid.String()
	}
	return s.String()
}

// readyProbe is the child side of probeSetups: it decides every formula on
// stdin and prints the verdicts, one per formula.
func readyProbe(stdin io.Reader, stdout io.Writer) error {
	var texts []string
	if err := json.NewDecoder(stdin).Decode(&texts); err != nil {
		return fmt.Errorf("read warm-up set: %w", err)
	}
	var out []string
	for _, text := range texts {
		b := suf.NewBuilder()
		f, err := suf.Parse(text, b)
		if err != nil {
			return err
		}
		res := core.DecideCtx(context.Background(), f, b, decideOpts)
		status := res.Status.String()
		if res.Status == core.Invalid && (res.Model == nil || suf.EvalBool(f, res.Model.Interp())) {
			status += badModelMark
		}
		out = append(out, status)
	}
	_, err := fmt.Fprintln(stdout, strings.Join(out, " "))
	return err
}
