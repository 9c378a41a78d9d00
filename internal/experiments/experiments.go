// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5) on the synthetic benchmark suite:
//
//	Fig. 2 — SD vs EIJ effect on the SAT solver (CNF clauses, conflict
//	         clauses, SAT time) on five large benchmarks;
//	Fig. 3 — normalized total time vs number of separation predicates for SD
//	         and EIJ on the 16-benchmark sample (log-log correlation);
//	§4.1   — automatic SEP_THOLD selection by minimum-variance clustering of
//	         the Fig. 3 EIJ run-times;
//	Fig. 4 — HYBRID vs SD and EIJ on the 39 non-invariant benchmarks;
//	Fig. 5 — SD vs EIJ vs HYBRID on the invariant-checking benchmarks;
//	Fig. 6 — HYBRID vs the SVC-style and lazy CVC-style baselines on the
//	         39 non-invariant benchmarks.
//
// Absolute times differ from the paper's 2003 testbed; the reproduced claim
// is the shape: who wins, by what rough factor, and where the crossovers
// fall.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/core"
	"sufsat/internal/lazy"
	"sufsat/internal/obs"
	"sufsat/internal/stats"
	"sufsat/internal/suf"
	"sufsat/internal/svc"
)

// Config controls experiment runs.
type Config struct {
	// Timeout per decision-procedure run (the paper used 30 minutes; scale
	// to taste). Default 20s.
	Timeout time.Duration
	// MaxTrans caps EIJ transitivity constraints, standing in for the
	// paper's one-hour translation timeout. Default 1,000,000.
	MaxTrans int
	// Threshold overrides SEP_THOLD for HYBRID (0 = library default).
	Threshold int
	// Workers selects the number of parallel SAT workers per decision run
	// (0 or 1 = sequential, the paper's protocol).
	Workers int
	// Ctx, when non-nil, cancels in-flight decision runs when done; figure
	// generators then return with the completed prefix of their rows.
	Ctx context.Context
	// Telemetry, when non-nil, is threaded into every decision run so a live
	// debug endpoint (see internal/obs) can observe figure generation as it
	// happens; spans and samples of successive runs accumulate in the one
	// recorder. Not meant for per-run reports — use the facade for those.
	Telemetry *obs.Recorder
}

// ctx returns the run context (Background when unset).
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Second
	}
	if c.MaxTrans == 0 {
		c.MaxTrans = 1_000_000
	}
	return c
}

// Run is one benchmark × method measurement.
type Run struct {
	Bench    string
	Nodes    int
	SepPreds int
	Method   string
	Status   core.Status
	Total    time.Duration
	SATTime  time.Duration
	Clauses  int
	Conflict int64
	// §3 candidate formula features.
	MaxRange  int     // maximum small-model domain size over the classes
	SumRange  int     // sum of the small-model domain sizes
	PFraction float64 // fraction of p-function applications
}

// TimedOut reports whether the run hit a limit (timeout, cancellation or a
// resource budget) instead of reaching a verdict.
func (r Run) TimedOut() bool { return !r.Status.Definitive() }

// Seconds returns the total time, with timeouts charged the full limit, like
// the paper's scatter plots place timed-out runs on the "timeout" line.
func (r Run) Seconds(cfg Config) float64 {
	if r.TimedOut() {
		return cfg.Timeout.Seconds()
	}
	return r.Total.Seconds()
}

// decide runs one benchmark with one core method.
func decide(bm bench.Benchmark, m core.Method, cfg Config) Run {
	f, b := bm.Build()
	nodes := suf.CountNodes(f)
	res := core.DecideCtx(cfg.ctx(), f, b, core.Options{
		Method:          m,
		SepThreshold:    cfg.Threshold,
		MaxTransClauses: cfg.MaxTrans,
		Timeout:         cfg.Timeout,
		SolverWorkers:   cfg.Workers,
		Telemetry:       cfg.Telemetry,
		// The paper's protocol: a blown translation budget aborts the run like
		// its translation-stage timeout; degradation would quietly rescue
		// HYBRID and change the figures.
		NoDegrade: true,
	})
	if res.Status == core.Valid != bm.Valid && res.Status.Definitive() {
		panic(fmt.Sprintf("experiments: %s decided %v by %v — suite is broken", bm.Name, res.Status, m))
	}
	return Run{
		Bench:     bm.Name,
		Nodes:     nodes,
		SepPreds:  res.Stats.SepPreds,
		Method:    m.String(),
		Status:    res.Status,
		Total:     res.Stats.TotalTime,
		SATTime:   res.Stats.SATTime,
		Clauses:   res.Stats.CNFClauses,
		Conflict:  res.Stats.SAT.ConflictClauses,
		MaxRange:  res.Stats.SDStats.MaxRange,
		SumRange:  res.Stats.SDStats.SumRange,
		PFraction: res.Stats.PFraction,
	}
}

// Fig2Row is one row of the paper's Figure 2 table.
type Fig2Row struct {
	Bench                   string
	SDClauses, EIJClauses   int
	SDConflict, EIJConflict int64
	SDSATSec, EIJSATSec     float64
}

// Fig2 reproduces the encoding-effect table on five large sample benchmarks.
func Fig2(cfg Config) []Fig2Row {
	cfg = cfg.withDefaults()
	names := fig2Benchmarks()
	rows := make([]Fig2Row, 0, len(names))
	for _, n := range names {
		bm, ok := bench.ByName(n)
		if !ok {
			continue
		}
		sd := decide(bm, core.SD, cfg)
		eij := decide(bm, core.EIJ, cfg)
		rows = append(rows, Fig2Row{
			Bench:     n,
			SDClauses: sd.Clauses, EIJClauses: eij.Clauses,
			SDConflict: sd.Conflict, EIJConflict: eij.Conflict,
			SDSATSec: sd.SATTime.Seconds(), EIJSATSec: eij.SATTime.Seconds(),
		})
	}
	return rows
}

// fig2Benchmarks mirrors the paper's choice of "5 of the larger benchmarks
// from the sample of size 16" on which both encodings complete.
func fig2Benchmarks() []string {
	return []string{"dlx-5", "lsu-3", "elf-4", "cvt-6", "ooo.t-2"}
}

// PrintFig2 renders the table in the paper's format.
func PrintFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2: Effect of Encoding on SAT solver performance")
	fmt.Fprintf(w, "%-10s | %21s | %21s | %19s\n", "", "# of CNF Clauses", "# of Conflict Clauses", "SAT Time (sec)")
	fmt.Fprintf(w, "%-10s | %10s %10s | %10s %10s | %9s %9s\n",
		"Benchmark", "SD", "EIJ", "SD", "EIJ", "SD", "EIJ")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %10d %10d | %10d %10d | %9.3f %9.3f\n",
			r.Bench, r.SDClauses, r.EIJClauses, r.SDConflict, r.EIJConflict, r.SDSATSec, r.EIJSATSec)
	}
}

// Fig3Point is one benchmark's normalized-time observation.
type Fig3Point struct {
	Bench                 string
	Nodes                 int
	SepPreds              int
	SDNorm                float64 // sec per kilonode
	EIJNorm               float64
	SDTimeout, EIJTimeout bool
}

// Fig3 measures normalized run-time vs separation-predicate count on the
// 16-benchmark sample.
func Fig3(cfg Config) []Fig3Point {
	cfg = cfg.withDefaults()
	var pts []Fig3Point
	for _, bm := range bench.Sample16() {
		sd := decide(bm, core.SD, cfg)
		eij := decide(bm, core.EIJ, cfg)
		kn := float64(sd.Nodes) / 1000.0
		pts = append(pts, Fig3Point{
			Bench:      bm.Name,
			Nodes:      sd.Nodes,
			SepPreds:   sd.SepPreds,
			SDNorm:     sd.Seconds(cfg) / kn,
			EIJNorm:    eij.Seconds(cfg) / kn,
			SDTimeout:  sd.TimedOut(),
			EIJTimeout: eij.TimedOut(),
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].SepPreds < pts[j].SepPreds })
	return pts
}

// Fig3Correlations returns the log-log Pearson correlation of normalized
// time with the separation-predicate count for EIJ and SD — the paper's
// finding is strong correlation for EIJ, weak for SD.
func Fig3Correlations(pts []Fig3Point) (eij, sd float64) {
	var xs, es, ss []float64
	for _, p := range pts {
		xs = append(xs, float64(p.SepPreds))
		es = append(es, p.EIJNorm)
		ss = append(ss, p.SDNorm)
	}
	return stats.PearsonLogLog(xs, es), stats.PearsonLogLog(xs, ss)
}

// PrintFig3 renders the series behind the paper's log-log scatter.
func PrintFig3(w io.Writer, pts []Fig3Point) {
	fmt.Fprintln(w, "Figure 3: Effect of number of separation predicates (normalized sec/Knode)")
	fmt.Fprintf(w, "%-10s %8s %8s %12s %12s\n", "Benchmark", "Nodes", "SepPred", "SD", "EIJ")
	for _, p := range pts {
		sd := fmt.Sprintf("%12.3f", p.SDNorm)
		if p.SDTimeout {
			sd = "     timeout"
		}
		eij := fmt.Sprintf("%12.3f", p.EIJNorm)
		if p.EIJTimeout {
			eij = "     timeout"
		}
		fmt.Fprintf(w, "%-10s %8d %8d %s %s\n", p.Bench, p.Nodes, p.SepPreds, sd, eij)
	}
	ce, cs := Fig3Correlations(pts)
	fmt.Fprintf(w, "log-log correlation with #sep-preds: EIJ %.2f, SD %.2f\n", ce, cs)
}

// Threshold runs the §4.1 procedure: cluster the sorted normalized EIJ
// run-times of the sample and return the smallest multiple of 100 above n_k.
func Threshold(cfg Config) (int, []Fig3Point) {
	pts := Fig3(cfg)
	samples := make([]core.Sample, len(pts))
	for i, p := range pts {
		samples[i] = core.Sample{SepPreds: p.SepPreds, NormTime: p.EIJNorm}
	}
	return core.SelectThreshold(samples), pts
}

// Feature is one §3 candidate formula feature with its measured log-log
// correlation against the normalized EIJ and SD run-times.
type Feature struct {
	Name    string
	EIJCorr float64
	SDCorr  float64
}

// FeatureStudy reproduces §3's feature screening: of the candidate features
// — (1) number of separation predicates, (2) maximum small-model size,
// (3) p-function fraction, (4) sum of small-model sizes — only the number of
// separation predicates shows a strong correlation with EIJ's normalized
// run-time. Timeouts are charged the full limit, as in Figure 3.
func FeatureStudy(cfg Config) []Feature {
	cfg = cfg.withDefaults()
	type obs struct {
		feats   [4]float64
		eij, sd float64
	}
	var data []obs
	for _, bm := range bench.Sample16() {
		sd := decide(bm, core.SD, cfg)
		eij := decide(bm, core.EIJ, cfg)
		kn := float64(sd.Nodes) / 1000.0
		data = append(data, obs{
			feats: [4]float64{
				float64(sd.SepPreds),
				float64(sd.MaxRange),
				sd.PFraction,
				float64(sd.SumRange),
			},
			eij: eij.Seconds(cfg) / kn,
			sd:  sd.Seconds(cfg) / kn,
		})
	}
	names := []string{
		"separation predicates",
		"max small-model size",
		"p-function fraction",
		"sum of small-model sizes",
	}
	out := make([]Feature, 4)
	for k := 0; k < 4; k++ {
		var xs, es, ss []float64
		for _, d := range data {
			xs = append(xs, d.feats[k])
			es = append(es, d.eij)
			ss = append(ss, d.sd)
		}
		out[k] = Feature{Name: names[k], EIJCorr: stats.PearsonLogLog(xs, es), SDCorr: stats.PearsonLogLog(xs, ss)}
	}
	return out
}

// PrintFeatureStudy renders the §3 screening table.
func PrintFeatureStudy(w io.Writer, fs []Feature) {
	fmt.Fprintln(w, "§3 feature screening: log-log correlation of normalized run-time with candidate features")
	fmt.Fprintf(w, "%-28s %8s %8s\n", "feature", "EIJ", "SD")
	for _, f := range fs {
		fmt.Fprintf(w, "%-28s %8.2f %8.2f\n", f.Name, f.EIJCorr, f.SDCorr)
	}
}

// Pair is one benchmark's (HYBRID time, other-method time) scatter point.
type Pair struct {
	Bench                       string
	Hybrid                      float64
	Other                       float64
	HybridTimeout, OtherTimeout bool
}

// Summary aggregates a scatter comparison.
type Summary struct {
	Wins, Losses   int // HYBRID faster / slower (completed runs)
	HybridTimeouts int
	OtherTimeouts  int
	MaxSpeedup     float64 // best Other/Hybrid ratio over completed pairs
}

// Summarize computes the paper-style reading of a scatter: points above the
// diagonal are HYBRID wins.
func Summarize(pairs []Pair) Summary {
	var s Summary
	s.MaxSpeedup = 1
	for _, p := range pairs {
		if p.HybridTimeout {
			s.HybridTimeouts++
		}
		if p.OtherTimeout {
			s.OtherTimeouts++
		}
		if p.HybridTimeout || p.OtherTimeout {
			continue
		}
		if p.Hybrid <= p.Other {
			s.Wins++
		} else {
			s.Losses++
		}
		if p.Hybrid > 0 {
			if r := p.Other / p.Hybrid; r > s.MaxSpeedup {
				s.MaxSpeedup = r
			}
		}
	}
	return s
}

// Fig4 compares HYBRID against SD and EIJ on the 39 non-invariant
// benchmarks.
func Fig4(cfg Config) (vsSD, vsEIJ []Pair) {
	cfg = cfg.withDefaults()
	for _, bm := range bench.NonInvariant() {
		hy := decide(bm, core.Hybrid, cfg)
		sd := decide(bm, core.SD, cfg)
		eij := decide(bm, core.EIJ, cfg)
		vsSD = append(vsSD, Pair{bm.Name, hy.Seconds(cfg), sd.Seconds(cfg), hy.TimedOut(), sd.TimedOut()})
		vsEIJ = append(vsEIJ, Pair{bm.Name, hy.Seconds(cfg), eij.Seconds(cfg), hy.TimedOut(), eij.TimedOut()})
	}
	return vsSD, vsEIJ
}

// Fig5 compares HYBRID (at the given threshold; the paper sets 100) against
// SD and EIJ on the invariant-checking benchmarks.
func Fig5(cfg Config) (vsSD, vsEIJ []Pair) {
	cfg = cfg.withDefaults()
	for _, bm := range bench.InvariantChecking() {
		hy := decide(bm, core.Hybrid, cfg)
		sd := decide(bm, core.SD, cfg)
		eij := decide(bm, core.EIJ, cfg)
		vsSD = append(vsSD, Pair{bm.Name, hy.Seconds(cfg), sd.Seconds(cfg), hy.TimedOut(), sd.TimedOut()})
		vsEIJ = append(vsEIJ, Pair{bm.Name, hy.Seconds(cfg), eij.Seconds(cfg), hy.TimedOut(), eij.TimedOut()})
	}
	return vsSD, vsEIJ
}

// Fig6 compares HYBRID against the SVC-style and lazy CVC-style baselines on
// the 39 non-invariant benchmarks (invariant ones are excluded like in the
// paper, where SVC's rational semantics cannot decide them).
func Fig6(cfg Config) (vsSVC, vsCVC []Pair) {
	cfg = cfg.withDefaults()
	for _, bm := range bench.NonInvariant() {
		hy := decide(bm, core.Hybrid, cfg)

		f, b := bm.Build()
		sv := svc.Decide(cfg.ctx(), f, b, svc.Options{Timeout: cfg.Timeout, Telemetry: cfg.Telemetry})
		svSec := sv.Stats.Total.Seconds()
		if !sv.Status.Definitive() {
			svSec = cfg.Timeout.Seconds()
		} else if (sv.Status == core.Valid) != bm.Valid {
			panic(fmt.Sprintf("experiments: %s decided %v by SVC", bm.Name, sv.Status))
		}

		f2, b2 := bm.Build()
		lz := lazy.Decide(cfg.ctx(), f2, b2, lazy.Options{Timeout: cfg.Timeout, Workers: cfg.Workers, Telemetry: cfg.Telemetry})
		lzSec := lz.Stats.Total.Seconds()
		if !lz.Status.Definitive() {
			lzSec = cfg.Timeout.Seconds()
		} else if (lz.Status == core.Valid) != bm.Valid {
			panic(fmt.Sprintf("experiments: %s decided %v by lazy", bm.Name, lz.Status))
		}

		vsSVC = append(vsSVC, Pair{bm.Name, hy.Seconds(cfg), svSec, hy.TimedOut(), !sv.Status.Definitive()})
		vsCVC = append(vsCVC, Pair{bm.Name, hy.Seconds(cfg), lzSec, hy.TimedOut(), !lz.Status.Definitive()})
	}
	return vsSVC, vsCVC
}

// PrintPairs renders a scatter comparison as a table plus summary line.
func PrintPairs(w io.Writer, title, other string, pairs []Pair) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %12s %12s\n", "Benchmark", "HYBRID(s)", other+"(s)")
	for _, p := range pairs {
		h := fmt.Sprintf("%12.3f", p.Hybrid)
		if p.HybridTimeout {
			h = "     timeout"
		}
		o := fmt.Sprintf("%12.3f", p.Other)
		if p.OtherTimeout {
			o = "     timeout"
		}
		fmt.Fprintf(w, "%-10s %s %s\n", p.Bench, h, o)
	}
	s := Summarize(pairs)
	fmt.Fprintf(w, "summary: HYBRID faster on %d, slower on %d; timeouts HYBRID=%d %s=%d; max speedup %.1fx\n",
		s.Wins, s.Losses, s.HybridTimeouts, other, s.OtherTimeouts, s.MaxSpeedup)
}
