// Benchmarks regenerating the measured quantity behind each table and
// figure of the paper's evaluation, as Go testing.B benchmarks:
//
//	go test -bench=Fig2 -benchmem .     # Figure 2's SD vs EIJ SAT workload
//	go test -bench=. -benchmem .        # everything
//
// Each sub-benchmark decides one suite formula with one method; comparing
// the per-op times of the SD/EIJ/HYBRID variants of a figure reproduces the
// figure's shape. cmd/experiments prints the paper-formatted tables
// (including the timeout behaviour, which benchmarks deliberately avoid by
// only exercising complete-able pairs).
package sufsat_test

import (
	"context"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/boolexpr"
	"sufsat/internal/core"
	"sufsat/internal/funcelim"
	"sufsat/internal/lazy"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sat"
	"sufsat/internal/sep"
	"sufsat/internal/svc"
)

const benchTimeout = 30 * time.Second

func decideBench(b *testing.B, name string, m core.Method, threshold int) {
	b.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, sb := bm.Build()
		res := core.Decide(f, sb, core.Options{
			Method: m, SepThreshold: threshold,
			Timeout: benchTimeout, MaxTransClauses: 1_000_000,
		})
		if res.Status != core.Valid {
			b.Fatalf("%s via %v: %v (%v)", name, m, res.Status, res.Err)
		}
	}
}

// Figure 2: the SAT-solver effect of SD vs EIJ on five large benchmarks.
func BenchmarkFig2(b *testing.B) {
	for _, name := range []string{"dlx-5", "lsu-3", "elf-4", "cvt-6", "ooo.t-2"} {
		b.Run("SD/"+name, func(b *testing.B) { decideBench(b, name, core.SD, 0) })
		b.Run("EIJ/"+name, func(b *testing.B) { decideBench(b, name, core.EIJ, 0) })
	}
}

// Figure 3: normalized-time growth with the separation-predicate count.
// The timed-out region of the figure is excluded (benchmarks must finish);
// cmd/experiments -fig 3 shows the full curve including translation
// timeouts.
func BenchmarkFig3(b *testing.B) {
	for _, name := range []string{"cvt-2", "elf-2", "lsu-2", "dlx-5", "ccp-2", "elf-8"} {
		b.Run("SD/"+name, func(b *testing.B) { decideBench(b, name, core.SD, 0) })
		b.Run("EIJ/"+name, func(b *testing.B) { decideBench(b, name, core.EIJ, 0) })
	}
}

// Figure 4: HYBRID vs SD and EIJ on non-invariant benchmarks, including the
// ones EIJ cannot finish (HYBRID and SD only there).
func BenchmarkFig4(b *testing.B) {
	both := []string{"dlx-5", "cvt-6", "lsu-2", "ccp-4", "elf-6"}
	for _, name := range both {
		b.Run("HYBRID/"+name, func(b *testing.B) { decideBench(b, name, core.Hybrid, 0) })
		b.Run("SD/"+name, func(b *testing.B) { decideBench(b, name, core.SD, 0) })
		b.Run("EIJ/"+name, func(b *testing.B) { decideBench(b, name, core.EIJ, 0) })
	}
	// EIJ times out on these; HYBRID's SD routing rescues them.
	for _, name := range []string{"dlx-7", "lsu-4", "ooo.t-3"} {
		b.Run("HYBRID/"+name, func(b *testing.B) { decideBench(b, name, core.Hybrid, 0) })
		b.Run("SD/"+name, func(b *testing.B) { decideBench(b, name, core.SD, 0) })
	}
}

// Figure 5: invariant checking — SD wins; HYBRID at SEP_THOLD=100 completes
// on the small instances only.
func BenchmarkFig5(b *testing.B) {
	for _, name := range []string{"ooo.inv-2", "ooo.inv-5", "ooo.inv-8"} {
		b.Run("SD/"+name, func(b *testing.B) { decideBench(b, name, core.SD, 0) })
	}
	for _, name := range []string{"ooo.inv-1", "ooo.inv-2"} {
		b.Run("HYBRID100/"+name, func(b *testing.B) { decideBench(b, name, core.Hybrid, 100) })
	}
}

// Figure 6: HYBRID vs the SVC-style and lazy CVC-style baselines. SVC only
// finishes the small conjunctive formulas; the lazy baseline pays one theory
// call per spurious assignment.
func BenchmarkFig6(b *testing.B) {
	run := func(name string, kind string) {
		bm, _ := bench.ByName(name)
		b.Run(kind+"/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, sb := bm.Build()
				var status core.Status
				switch kind {
				case "SVC":
					status = svc.Decide(context.Background(), f, sb, svc.Options{Timeout: benchTimeout}).Status
				case "CVC":
					status = lazy.Decide(context.Background(), f, sb, lazy.Options{Timeout: benchTimeout}).Status
				default:
					status = core.Decide(f, sb, core.Options{Timeout: benchTimeout, MaxTransClauses: 1_000_000}).Status
				}
				if status == core.Timeout {
					// The baselines time out on most of the suite — that IS
					// Figure 6's finding; the timing comparison only makes
					// sense on runs that finish.
					b.Skipf("%s via %s hit the %v limit", name, kind, benchTimeout)
				}
				if status != core.Valid {
					b.Fatalf("%s via %s: %v", name, kind, status)
				}
			}
		})
	}
	// cvt-1 is the only benchmark the SVC-style splitter finishes (its
	// refutation is conjunction-reducible); see experiments_output.txt.
	for _, name := range []string{"cvt-1", "dlx-1", "ccp-1", "elf-1"} {
		run(name, "HYBRID")
		run(name, "SVC")
		run(name, "CVC")
	}
	for _, name := range []string{"dlx-5", "cvt-6", "ccp-5"} {
		run(name, "HYBRID")
		run(name, "CVC")
	}
}

// Component benchmarks: the substrates the figures stand on.

func BenchmarkSATPigeonhole(b *testing.B) {
	// PHP(8,7): a classic resolution-hard UNSAT instance for the CDCL core.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newPigeonhole(8, 7)
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}

func BenchmarkEncodeOnly(b *testing.B) {
	// Pure translation cost (encode + CNF, no search): decide a formula
	// whose SAT problem is trivial after encoding.
	bm, _ := bench.ByName("elf-8")
	for _, m := range []core.Method{core.SD, core.EIJ, core.Hybrid} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, sb := bm.Build()
				res := core.Decide(f, sb, core.Options{Method: m, Timeout: benchTimeout, MaxTransClauses: 1_000_000})
				if res.Status != core.Valid {
					b.Fatalf("%v: %v", m, res.Status)
				}
			}
		})
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	// Deterministic formula construction across the size spectrum.
	for _, name := range []string{"dlx-1", "elf-4", "ooo.t-5"} {
		bm, _ := bench.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, _ := bm.Build()
				if f == nil {
					b.Fatal("nil formula")
				}
			}
		})
	}
}

func newPigeonhole(p, h int) *sat.Solver {
	s := sat.New()
	vars := make([][]sat.Var, p)
	for i := range vars {
		vars[i] = make([]sat.Var, h)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < p; i++ {
		lits := make([]sat.Lit, h)
		for j := 0; j < h; j++ {
			lits[j] = sat.PosLit(vars[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(sat.NegLit(vars[i1][j]), sat.NegLit(vars[i2][j]))
			}
		}
	}
	return s
}

// BenchmarkAblationElimination quantifies the positive-equality benefit:
// the nested-ITE scheme keeps p-function constants maximally diverse, while
// Ackermann's consistency constraints force general encodings.
func BenchmarkAblationElimination(b *testing.B) {
	for _, name := range []string{"dlx-3", "cvt-5", "dlx-5"} {
		bm, _ := bench.ByName(name)
		for _, ack := range []bool{false, true} {
			label := "ITE"
			if ack {
				label = "Ackermann"
			}
			b.Run(label+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f, sb := bm.Build()
					res := core.Decide(f, sb, core.Options{
						Ackermann: ack, Timeout: benchTimeout, MaxTransClauses: 2_000_000,
					})
					if res.Status != core.Valid {
						b.Fatalf("%s ack=%v: %v", name, ack, res.Status)
					}
				}
			})
		}
	}
}

// BenchmarkAblationPortfolio compares the paper's predictive hybrid routing
// against the run-everything portfolio on benchmarks where EIJ blows up
// (the portfolio must discard a wasted EIJ run) and where EIJ wins (the
// portfolio matches it without needing the threshold).
func BenchmarkAblationPortfolio(b *testing.B) {
	for _, name := range []string{"dlx-5", "dlx-7", "lsu-4"} {
		bm, _ := bench.ByName(name)
		b.Run("HYBRID/"+name, func(b *testing.B) { decideBench(b, name, core.Hybrid, 0) })
		b.Run("PORTFOLIO/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, sb := bm.Build()
				res := core.DecidePortfolioCtx(context.Background(), f, sb, core.Options{Timeout: benchTimeout, MaxTransClauses: 1_000_000})
				if res.Status != core.Valid {
					b.Fatalf("%s: %v", name, res.Status)
				}
			}
		})
	}
}

// BenchmarkAblationEliminationOrder compares the FM vertex-elimination
// heuristics on a transitivity-heavy benchmark: the ordering is a design
// choice that directly controls F_trans fill-in.
func BenchmarkAblationEliminationOrder(b *testing.B) {
	bm, _ := bench.ByName("ooo.inv-2")
	for _, ord := range []perconstraint.OrderHeuristic{
		perconstraint.MinDegree, perconstraint.MinFill, perconstraint.Lexicographic,
	} {
		b.Run(ord.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, sb := bm.Build()
				elim := funcelim.Eliminate(f, sb)
				info, err := sep.Analyze(elim.Formula, sb, elim.PConsts)
				if err != nil {
					b.Fatal(err)
				}
				bb := boolexpr.NewBuilder()
				e := perconstraint.NewEncoder(info, sb, bb)
				e.Order = ord
				e.MaxTrans = 2_000_000
				if _, err := e.Walker().Encode(info.Formula); err != nil {
					b.Fatal(err)
				}
				if _, err := e.TransClauseList(); err != nil {
					// The ordering ablation's finding: bad orders blow the
					// constraint cap where the heuristics stay polynomial.
					b.Skipf("translation cap hit after %d constraints (%v)",
						e.Stats().TransConstraints, err)
				}
				b.ReportMetric(float64(e.Stats().TransConstraints), "constraints")
			}
		})
	}
}
