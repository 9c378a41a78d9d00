// Command perfledger is the repository's performance ledger: one benchmark
// that times the SUF decision procedure end to end on four workloads and
// attributes the time to its layers from outside, by timing calls into each
// layer's public functions. BENCHMARK.json at the repository root declares
// its workloads and metrics.
//
// Usage (from the repository root; run.sh builds this command and, next to
// it, the sufserved and sufrouter daemons from source first):
//
//	bash perfledger/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	        [-out report.json] [-trace-out trace.json]
//	bash perfledger/run.sh -list
//
// Flags (one or two leading dashes):
//
//	-workload   paper-hybrid, paper-invariant, service-fresh or service-repeat
//	-seed       input seed: it orders the rounds and draws the service
//	            requests; the same seed gives the same inputs
//	-seconds    length of the measured window
//	-trace      0 reports the end-to-end metrics, 1 the per-layer metrics
//	-out        write the full report, one row per formula, to this file
//	-trace-out  write the spans of the traced rounds (Chrome trace format)
//	-list       print the workloads and why each exists, then exit
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the chosen mode, each with its value and unit.
// A wrong verdict, or a counterexample that does not falsify its formula,
// makes correct false and the exit status 1. Errors that leave no result
// exit with status 2 and print no JSON.
//
// Paper workloads decide their population in this process with
// core.DecideCtx (HYBRID, default SEP_THOLD, one SAT worker, 60 s limit), a
// closed loop with one caller: an untimed warm-up round, then rounds in
// seed-shuffled order while another round fits in the window. Each formula's
// time to a verdict is its best over the rounds: on a shared host whose speed
// drifts by tens of percent within a minute, the best of repeated timings is
// what repeats from run to run. geomean_ms is the geometric mean of those
// times over the population and tail_ms their nearest-rank p98;
// capacity_rps is the population size over the sum of the best times;
// peak_rss_mb is the median over rounds of this process's peak resident set
// (VmHWM, reset before each round). setup_s is the median over nine fresh
// processes of this binary of the time from exec until the warm-up set — the
// smallest formula of each family — is parsed and decided.
//
// Service workloads run the README fleet, sufrouter in front of two
// `sufserved -workers 1`, as real processes, with load from this process
// over at most one keep-alive connection per CPU. For the first three fifths
// of the window an open loop sends at the workload's rate; each latency is
// timed from the request's due time, so a late send counts, and a request
// without a verdict counts as 10 s. geomean_ms is the geometric mean over
// formulas of each formula's median open-loop latency. tail_ms is the
// nearest-rank p98 of all open-loop request latencies on service-fresh, and
// on service-repeat, whose cache hits all cost about the same, the p98 over
// formulas of their median latencies. For the rest of the window a closed
// loop keeps one request per CPU in flight; capacity_rps is its completions
// per second. peak_rss_mb sums the three daemons' VmHWM. setup_s is the
// median over five fleets of the time from the first exec until all three
// answer /readyz and one warm-up request per family has been answered.
//
// With -trace 1 a paper run alternates untimed decision rounds with traced
// replays through the layers (funcelim.Eliminate, sep.Analyze,
// enc.Walker.Encode, perconstraint.Encoder.TransClauseList,
// boolexpr.AssertTrue, sat.Solver.Solve), each call wrapped in a span, then
// sends the population once through a fleet for the server and router
// metrics. A service run takes those from response fields and /metrics
// scrapes over its phases and replays its population in-process afterwards.
// core.residual_s is the untraced decision time per round minus the traced
// layers' sum: model extraction, the facade and the cost of tracing.
//
// The older sufbench modes (-soak, -chaos, -cache, -affinity, -membership,
// -slo) and their BENCH_PRn.json reports are legacy; this ledger replaces
// them as the measure of performance.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	TraceOut string
	BinDir   string // holds the sufserved and sufrouter binaries
}

// runLimit bounds a whole run, set-up included; the ledger's contract is an
// answer within three minutes.
const runLimit = 170 * time.Second

func main() {
	if serveProbe() {
		return
	}
	os.Exit(ledgerMain(os.Args[1:]))
}

// serveProbe runs the child side of a set-up probe when this process is one
// (see probeSetups) and reports whether it was.
func serveProbe() bool {
	if os.Getenv(readyProbeEnv) == "" {
		return false
	}
	if err := readyProbe(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger probe:", err)
		os.Exit(2)
	}
	return true
}

func ledgerMain(args []string) int {
	fs := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "write the full report, one row per formula, to this file")
	traceOut := fs.String("trace-out", "", "write the traced rounds' spans to this file (Chrome trace format)")
	list := fs.Bool("list", false, "list the workloads and exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: perfledger -workload NAME -seed N -seconds S -trace 0|1 [-out FILE] [-trace-out FILE]")
		fmt.Fprintln(fs.Output(), "       perfledger -list")
		fmt.Fprintln(fs.Output(), "The sufbench -soak/-chaos/-cache/-affinity/-membership/-slo modes are legacy; this ledger replaces them.")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
		return 0
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TraceOut: *traceOut, BinDir: filepath.Dir(exe)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	r, err := run(ctx, cfg, w, w.Population())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfledger: %s: %v\n", w.Name, err)
		return 2
	}
	r.writeSummary(os.Stderr)
	if *out != "" {
		if err := r.writeReport(*out); err != nil {
			fmt.Fprintln(os.Stderr, "perfledger:", err)
			return 2
		}
	}
	if err := r.writeLine(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		return 2
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// run measures workload w over population pop.
func run(ctx context.Context, cfg config, w workload, pop []item) (*result, error) {
	if w.Service {
		return runService(ctx, cfg, w, pop)
	}
	return runPaper(ctx, cfg, w, pop)
}
