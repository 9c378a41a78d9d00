package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables must
// match BENCHMARK.json at the repository root (TestLedgerSmoke checks it).
type metricDef struct{ Name, Unit string }

// endToEnd are the user-visible metrics, reported with -trace 0.
var endToEnd = []metricDef{
	{"geomean_ms", "ms"},    // geomean over formulas of their time to a verdict
	{"tail_ms", "ms"},       // its p98 (over formulas; on service-fresh over requests)
	{"capacity_rps", "1/s"}, // closed-loop decisions completed per second
	{"peak_rss_mb", "MB"},   // peak resident memory of the system under test
	{"setup_s", "s"},        // start of the system under test until ready
}

// perLayer are the single-layer metrics, reported with -trace 1. Seconds and
// counts of the pipeline layers are per round over the population; the
// server and router metrics come from response fields and /metrics scrapes.
var perLayer = []metricDef{
	{"core.decide_s", "s"},
	{"core.residual_s", "s"},
	{"funcelim.s", "s"},
	{"funcelim.func_apps", "count"},
	{"sep.analyze_s", "s"},
	{"sep.sep_preds", "count"},
	{"sep.classes", "count"},
	{"enc.s", "s"},
	{"enc.sd_classes", "count"},
	{"enc.bool_nodes", "count"},
	{"perconstraint.trans_s", "s"},
	{"perconstraint.trans_clauses", "count"},
	{"boolexpr.cnf_s", "s"},
	{"boolexpr.cnf_vars", "count"},
	{"boolexpr.cnf_clauses", "count"},
	{"sat.s", "s"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.decisions", "count"},
	{"runtime.alloc_mb", "MB"},
	{"suf.parse_us", "us"},
	{"suf.fingerprint_us", "us"},
	{"server.queue_p50_ms", "ms"},
	{"server.queue_p99_ms", "ms"},
	{"server.solve_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"router.hop_p50_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"router.hedges", "count"},
	{"router.hedge_wins", "count"},
	{"router.failovers", "count"},
	{"server.shed", "count"},
}

// row is one formula's line of the report.
type row struct {
	Name       string  `json:"name"`
	Family     string  `json:"family"`
	Verdict    string  `json:"verdict"`
	Runs       int     `json:"runs"`
	BestMS     float64 `json:"best_ms"`
	MedianMS   float64 `json:"median_ms"`
	CNFClauses int     `json:"cnf_clauses"`
	Conflicts  int64   `json:"conflicts"`
}

// result is the outcome of one run. Attempted counts the decisions the run
// checked; Failed those that reached no verdict (non-definitive status, shed
// or transport error); Wrong those whose verdict or evidence was wrong.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	NumCPU    int                `json:"num_cpu"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong_verdicts"`
	Metrics   map[string]float64 `json:"metrics"`
	// GenLagP99MS says how late the open-loop generator sent (service
	// workloads only).
	GenLagP99MS float64 `json:"gen_lag_p99_ms,omitempty"`
	Rows        []row   `json:"rows"`
}

func newResult(w workload, cfg config) *result {
	return &result{
		Workload: w.Name,
		Seed:     cfg.Seed,
		Seconds:  cfg.Seconds,
		Trace:    cfg.Trace,
		NumCPU:   runtime.NumCPU(),
		Metrics:  make(map[string]float64),
	}
}

// tally records one decision of a formula whose validity is known. status is
// a core status string; evidenceOK is false when an invalid verdict came
// without a model, or with one that does not falsify the formula.
func (r *result) tally(valid bool, status string, evidenceOK bool) {
	r.Attempted++
	switch status {
	case "valid":
		if !valid {
			r.Wrong++
		}
	case "invalid":
		if valid || !evidenceOK {
			r.Wrong++
		}
	default:
		r.Failed++
	}
}

func (r *result) correct() bool { return r.Wrong == 0 }

// defs returns the metric table of the run's mode.
func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// writeLine prints the one-line JSON summary: correct, attempted, failed and
// every metric of the run's mode with its unit.
func (r *result) writeLine(w io.Writer) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]valueUnit)
	for _, d := range r.defs() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = valueUnit{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeSummary prints the metrics by name and unit for a reader.
func (r *result) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v: attempted=%d failed=%d wrong_verdicts=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Wrong)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-28s %14s %s\n", d.Name, strconv.FormatFloat(r.Metrics[d.Name], 'g', 6, 64), d.Unit)
	}
}

// writeReport writes the full result, per-formula rows included, to path.
func (r *result) writeReport(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid ("self" for
// this process) from /proc.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
