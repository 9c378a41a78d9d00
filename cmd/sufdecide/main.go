// Command sufdecide decides the validity of a SUF formula read from a file
// or standard input.
//
// Usage:
//
//	sufdecide [-method hybrid|sd|eij|lazy|svc|portfolio] [-timeout 30s]
//	          [-thold N] [-maxtrans N] [-maxconflicts N] [-maxcnf N]
//	          [-maxmem BYTES] [-j WORKERS] [-nodegrade]
//	          [-stats | -stats=json] [-stats-out FILE] [-trace FILE]
//	          [-debug-addr ADDR] [-remote URL] [-batch] [file.suf]
//
// With -remote the formula is decided by the sufserved (or sufrouter)
// instance at URL (through the retrying client, honoring Retry-After on load
// shedding) and reported with the same output and exit codes as a local run;
// budget flags travel with the request and are clamped to the server's
// ceilings. -trace then switches meaning: the request is traced end to end
// (W3C traceparent, the client minting the trace ID) and the merged
// cross-tier timeline from the response — through a router: client span,
// route and attempt spans, the winning backend's phase spans — is written as
// a fleet Chrome trace, validatable with tracecheck -fleet. -debug-addr and
// -dimacs stay local-only and are rejected with -remote.
//
// With -batch (remote-only) the input is one formula per line (blank lines
// and ";" comments skipped) and the whole set is decided in a single
// POST /v1/decide/batch round trip; the server answers duplicates and
// alpha-variants from one solve. Output is one "<line>: <status>" per item
// in input order, "(cached)"-marked when served from the verdict cache; the
// exit status is 0 when every item got a definitive verdict, 2 otherwise.
//
// The input is one formula in s-expression syntax, for example:
//
//	; functional congruence
//	(=> (= x y) (= (f x) (f y)))
//
// Telemetry: -stats prints the unified run report in human-readable text,
// -stats=json as indented JSON (to -stats-out when given, else stdout);
// -trace writes a Chrome trace-event file of the pipeline spans and
// per-worker progress samples, loadable in chrome://tracing or Perfetto;
// -debug-addr serves expvar and pprof live during the run. All four sinks
// share one recorder, and the report is emitted on every exit path —
// timeouts, budget exhaustion and cancellation included. See docs/FORMATS.md
// for the schemas.
//
// SIGINT or SIGTERM cancels the in-flight decision; the run reports
// "canceled" with whatever statistics it gathered and exits accordingly.
//
// Exit status: 0 valid, 1 invalid, 2 error (including usage), 3 timeout,
// 4 canceled, 5 resource budget exhausted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"sufsat"
	"sufsat/internal/obs"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// exitCode maps a decision status to the documented process exit code.
func exitCode(s sufsat.Status) int {
	switch s {
	case sufsat.Valid:
		return 0
	case sufsat.Invalid:
		return 1
	case sufsat.Timeout:
		return 3
	case sufsat.Canceled:
		return 4
	case sufsat.ResourceOut:
		return 5
	}
	return 2
}

// statsFlag makes -stats an optional-value flag: bare -stats selects the
// human text sink, -stats=json the JSON sink.
type statsFlag struct{ mode string }

func (s *statsFlag) String() string   { return s.mode }
func (s *statsFlag) IsBoolFlag() bool { return true }
func (s *statsFlag) Set(v string) error {
	switch v {
	case "true", "text", "":
		s.mode = "text"
	case "json":
		s.mode = "json"
	case "false":
		s.mode = ""
	default:
		return fmt.Errorf("want -stats, -stats=text or -stats=json, got -stats=%s", v)
	}
	return nil
}

// decideRemote ships the raw input to a sufserved instance via the retrying
// client and reports the response with the same output and exit codes as a
// local run, so scripts can switch between the two with one flag. With
// traceFile the request is traced end to end (the client mints the trace ID)
// and the merged cross-tier timeline that comes back is written as a fleet
// Chrome trace — validatable with tracecheck -fleet. It never returns.
func decideRemote(baseURL, src string, req *server.Request, statsMode, statsOut, traceFile string) {
	req.Formula = src

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resp, err := client.New(baseURL).Decide(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufdecide:", err)
		os.Exit(2)
	}

	// Statuses that never reach the decision procedures map onto the error
	// exit code, like their local counterparts (parse errors, usage).
	switch resp.Status {
	case "malformed", "shed", "error":
		fmt.Println("error")
		if resp.Error != "" {
			fmt.Fprintln(os.Stderr, "sufdecide:", resp.Error)
		}
		os.Exit(2)
	}

	if req.SMT2 {
		switch resp.Status {
		case "invalid":
			fmt.Println("sat")
			printRemoteModel(req, resp)
			os.Exit(0)
		case "valid":
			fmt.Println("unsat")
			os.Exit(0)
		}
		fmt.Println("unknown")
	} else {
		fmt.Println(resp.Status)
		printRemoteModel(req, resp)
	}
	if resp.Error != "" {
		fmt.Fprintln(os.Stderr, "sufdecide:", resp.Error)
	}
	if statsMode != "" && resp.RequestID != "" {
		fmt.Fprintln(os.Stderr, "sufdecide: request-id", resp.RequestID)
	}
	if statsMode != "" && resp.Telemetry != nil {
		out := os.Stdout
		if statsOut != "" {
			f, err := os.Create(statsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: stats:", err)
				os.Exit(2)
			}
			defer f.Close()
			out = f
		}
		if statsMode == "json" {
			if err := resp.Telemetry.WriteJSON(out); err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: stats:", err)
			}
		} else {
			resp.Telemetry.RenderText(out)
		}
	}
	if traceFile != "" {
		if resp.Telemetry == nil {
			fmt.Fprintln(os.Stderr, "sufdecide: trace: the response carried no telemetry")
		} else if f, err := os.Create(traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "sufdecide: trace:", err)
			os.Exit(2)
		} else {
			err := obs.WriteFleetChromeTrace(f, resp.Telemetry)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: trace:", err)
				os.Exit(2)
			}
		}
	}

	switch resp.Status {
	case "valid":
		os.Exit(0)
	case "invalid":
		os.Exit(1)
	case "timeout":
		os.Exit(3)
	case "canceled":
		os.Exit(4)
	case "resource-out":
		os.Exit(5)
	}
	os.Exit(2)
}

// decideBatchRemote ships one formula per input line to the server's batch
// endpoint and prints one "<n>: <status>" line per item, in input order,
// with a "cached" marker on verdicts served from the verdict cache (which
// includes duplicates deduplicated inside the batch itself). Exit status: 0
// when every item reached a definitive verdict, 2 otherwise. It never
// returns.
func decideBatchRemote(baseURL string, src string, proto *server.Request) {
	var reqs []*server.Request
	var lines []int
	for i, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, ";") {
			continue
		}
		r := *proto
		r.Formula = trimmed
		reqs = append(reqs, &r)
		lines = append(lines, i+1)
	}
	if len(reqs) == 0 {
		fmt.Fprintln(os.Stderr, "sufdecide: -batch: no formulas in input (one per line)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resps, err := client.New(baseURL).DecideBatch(ctx, reqs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufdecide:", err)
		os.Exit(2)
	}

	allDefinitive := true
	for i, resp := range resps {
		status := resp.Status
		if proto.SMT2 {
			switch resp.Status {
			case "invalid":
				status = "sat"
			case "valid":
				status = "unsat"
			}
		}
		marker := ""
		if resp.Cached {
			marker = " (cached)"
		}
		fmt.Printf("%d: %s%s\n", lines[i], status, marker)
		printRemoteModel(reqs[i], resp)
		if resp.Error != "" {
			fmt.Fprintf(os.Stderr, "sufdecide: line %d: %s\n", lines[i], resp.Error)
		}
		switch resp.Status {
		case "valid", "invalid":
		default:
			allDefinitive = false
		}
	}
	if !allDefinitive {
		os.Exit(2)
	}
	os.Exit(0)
}

// printRemoteModel renders the response's falsifying assignment in the same
// "name = value" form the local Counterexample printer uses.
func printRemoteModel(req *server.Request, resp *server.Response) {
	if !req.WantModel || resp.Status != "invalid" {
		return
	}
	var names []string
	for n := range resp.ModelConsts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s = %d\n", n, resp.ModelConsts[n])
	}
	names = names[:0]
	for n := range resp.ModelBools {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s = %v\n", n, resp.ModelBools[n])
	}
}

func main() {
	method := flag.String("method", "hybrid", "decision method: hybrid, sd, eij, lazy, svc or portfolio")
	timeout := flag.Duration("timeout", 0, "wall-clock limit (0 = none)")
	thold := flag.Int("thold", 0, "SEP_THOLD for the hybrid method (0 = default)")
	maxTrans := flag.Int("maxtrans", 0, "transitivity-constraint cap (0 = none); hybrid degrades the blown class to SD")
	maxConflicts := flag.Int64("maxconflicts", 0, "SAT conflict cap (0 = none)")
	maxCNF := flag.Int("maxcnf", 0, "CNF problem-clause cap (0 = none)")
	maxMem := flag.Int64("maxmem", 0, "estimated encoding+solver memory cap in bytes (0 = none)")
	workers := flag.Int("j", 1, "parallel SAT workers racing with clause sharing (0 = NumCPU)")
	noDegrade := flag.Bool("nodegrade", false, "fail on a blown transitivity cap instead of degrading the class to SD")
	var stats statsFlag
	flag.Var(&stats, "stats", "print the run report: -stats for text, -stats=json for JSON")
	statsOut := flag.String("stats-out", "", "write the -stats report to this file instead of stdout")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file of spans and worker samples")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. :6060) during the run")
	showModel := flag.Bool("model", false, "print the counterexample when the formula is invalid")
	ackermann := flag.Bool("ackermann", false, "use Ackermann's function elimination (ablation)")
	smt2 := flag.Bool("smt2", false, "input is an SMT-LIB v2 script (QF_IDL/QF_UFIDL); reports sat/unsat")
	dimacs := flag.String("dimacs", "", "write the encoded SAT query to this file in DIMACS format")
	remote := flag.String("remote", "", "decide via the sufserved instance at this base URL instead of locally")
	batch := flag.Bool("batch", false, "with -remote: input is one formula per line, decided in one POST /v1/decide/batch")
	flag.Parse()

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: sufdecide [flags] [file.suf]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufdecide:", err)
		os.Exit(2)
	}

	if *batch && *remote == "" {
		fmt.Fprintln(os.Stderr, "sufdecide: -batch requires -remote")
		os.Exit(2)
	}
	if *remote != "" {
		if *debugAddr != "" || *dimacs != "" {
			fmt.Fprintln(os.Stderr, "sufdecide: -debug-addr and -dimacs require a local run, not -remote")
			os.Exit(2)
		}
		if *traceFile != "" && *batch {
			fmt.Fprintln(os.Stderr, "sufdecide: -trace traces a single remote request, not -batch")
			os.Exit(2)
		}
		if *batch {
			decideBatchRemote(*remote, string(src), &server.Request{
				SMT2:              *smt2,
				Method:            *method,
				TimeoutMS:         timeout.Milliseconds(),
				SepThreshold:      *thold,
				MaxTransClauses:   *maxTrans,
				MaxCNFClauses:     *maxCNF,
				MaxConflicts:      *maxConflicts,
				MaxMemoryEstimate: *maxMem,
				SolverWorkers:     *workers,
				NoDegrade:         *noDegrade,
				WantModel:         *showModel,
			})
		}
		decideRemote(*remote, string(src), &server.Request{
			SMT2:              *smt2,
			Method:            *method,
			TimeoutMS:         timeout.Milliseconds(),
			SepThreshold:      *thold,
			MaxTransClauses:   *maxTrans,
			MaxCNFClauses:     *maxCNF,
			MaxConflicts:      *maxConflicts,
			MaxMemoryEstimate: *maxMem,
			SolverWorkers:     *workers,
			NoDegrade:         *noDegrade,
			WantModel:         *showModel,
			WantTelemetry:     stats.mode != "" || *traceFile != "",
		}, stats.mode, *statsOut, *traceFile)
	}

	m, err := sufsat.ParseMethod(*method)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sufdecide: unknown method %q\n", *method)
		os.Exit(2)
	}

	b := sufsat.NewBuilder()
	var f sufsat.Formula
	if *smt2 {
		f, err = b.ParseSMTLIB(string(src))
	} else {
		f, err = b.Parse(string(src))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sufdecide:", err)
		os.Exit(2)
	}

	opts := sufsat.Options{
		Method:            m,
		Timeout:           *timeout,
		SepThreshold:      *thold,
		MaxTransClauses:   *maxTrans,
		MaxConflicts:      *maxConflicts,
		MaxCNFClauses:     *maxCNF,
		MaxMemoryEstimate: *maxMem,
		SolverWorkers:     *workers,
		NoDegrade:         *noDegrade,
		Ackermann:         *ackermann,
	}
	if opts.SolverWorkers == 0 {
		opts.SolverWorkers = runtime.NumCPU()
	}
	if *dimacs != "" {
		out, err := os.Create(*dimacs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sufdecide:", err)
			os.Exit(2)
		}
		defer out.Close()
		opts.DumpCNF = out
	}

	// One recorder feeds every telemetry sink. Local runs mint a request ID
	// too, so a local snapshot/trace correlates with server-side artifacts
	// when a formula is replayed against a daemon.
	var rec *sufsat.Telemetry
	if stats.mode != "" || *traceFile != "" || *debugAddr != "" {
		rec = sufsat.NewTelemetry()
		rec.SetRequestID(obs.NewRequestID())
		opts.Telemetry = rec
	}
	if *debugAddr != "" {
		obs.PublishRecorder(rec)
		srv, addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sufdecide:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sufdecide: debug endpoint on http://%s/debug/vars\n", addr)
	}

	// emit flushes the unified snapshot to the configured sinks. It runs on
	// every exit path that got as far as calling Decide, so failed runs
	// still report whatever they measured.
	emit := func(snap *sufsat.TelemetrySnapshot) {
		if snap != nil {
			obs.PublishSnapshot(snap)
		}
		if *traceFile != "" {
			tf, err := os.Create(*traceFile)
			if err == nil {
				err = rec.WriteChromeTrace(tf)
				if cerr := tf.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: trace:", err)
			}
		}
		if stats.mode == "" || snap == nil {
			return
		}
		out := os.Stdout
		if *statsOut != "" {
			var err error
			out, err = os.Create(*statsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: stats:", err)
				return
			}
			defer out.Close()
		}
		if stats.mode == "json" {
			if err := snap.WriteJSON(out); err != nil {
				fmt.Fprintln(os.Stderr, "sufdecide: stats:", err)
			}
		} else {
			snap.RenderText(out)
		}
	}

	// A first SIGINT/SIGTERM cancels the in-flight decision, which then
	// reports Canceled with partial statistics; a second signal kills the
	// process via the restored default disposition.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *smt2 {
		// sat(F) ⟺ ¬valid(¬F), decided directly so the telemetry report
		// covers this path too (the snapshot describes the validity check of
		// the negation).
		res := sufsat.DecideContext(ctx, f.Not(), opts)
		emit(res.Telemetry)
		switch res.Status {
		case sufsat.Invalid:
			fmt.Println("sat")
			if *showModel && res.Counterexample != nil {
				fmt.Println(res.Counterexample)
			}
			os.Exit(0)
		case sufsat.Valid:
			fmt.Println("unsat")
			os.Exit(0)
		}
		fmt.Println("unknown")
		if res.Err != nil {
			fmt.Fprintln(os.Stderr, "sufdecide:", res.Err)
		}
		os.Exit(exitCode(res.Status))
	}

	res := sufsat.DecideContext(ctx, f, opts)
	fmt.Println(res.Status)
	if *showModel && res.Counterexample != nil {
		fmt.Println(res.Counterexample)
	}
	emit(res.Telemetry)
	if !res.Status.Definitive() && res.Err != nil {
		fmt.Fprintln(os.Stderr, "sufdecide:", res.Err)
	}
	os.Exit(exitCode(res.Status))
}
