package server

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/history"
	"sufsat/internal/obs/slo"
)

// ObsConfig holds the observability settings sufserved and sufrouter share.
// Config and router.Config embed it; the zero value runs every layer with
// its defaults.
type ObsConfig struct {
	// SlowLogSize bounds the slow-request exemplar store served at
	// /debug/slowlog (0 = obs.DefaultSlowLogSize).
	SlowLogSize int
	// NoHistory disables the metrics-history ring, and with it the SLO
	// engine and trigger-fired profiling. History also stays off without a
	// metrics registry (there is nothing to snapshot).
	NoHistory bool
	// HistoryInterval is the history snapshot cadence and HistorySlots the
	// ring bound (zero = the history package defaults). Served at
	// /debug/history.
	HistoryInterval time.Duration
	HistorySlots    int
	// SLOFastWindow/SLOSlowWindow set the burn-rate engine's two windows
	// (zero = the slo package defaults: 5m, 1h).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	// SLOLatencyP95/SLOLatencyP99 are the latency objectives' thresholds
	// (zero = the daemon's defaults, slo.ServerLatencyP95 and so on).
	SLOLatencyP95 time.Duration
	SLOLatencyP99 time.Duration
	// ProfileDir, when set, also writes trigger-fired profiles to disk;
	// ProfileCPUDuration and ProfileMinGap tune the capture length and rate
	// limit (0 = 1s / 60s). Profiles are listed at /debug/profiles.
	ProfileDir         string
	ProfileCPUDuration time.Duration
	ProfileMinGap      time.Duration
	// ProfileSlowMS, when > 0, fires a profile capture when a request
	// completes in at least this many milliseconds (SLO burn transitions
	// always trigger).
	ProfileSlowMS float64
}

// RegisterFlags defines the shared observability flags on fs, bound to c.
// p95 and p99 are the daemon's default latency thresholds, named in the help.
func (c *ObsConfig) RegisterFlags(fs *flag.FlagSet, p95, p99 time.Duration) {
	fs.IntVar(&c.SlowLogSize, "slowlog", 0, "slow-request exemplars kept for /debug/slowlog (0 = default 32)")
	fs.BoolVar(&c.NoHistory, "no-history", false, "disable the metrics history ring, SLO engine and trigger-fired profiling")
	fs.DurationVar(&c.HistoryInterval, "history-interval", 0, "metrics history snapshot cadence (0 = 5s)")
	fs.IntVar(&c.HistorySlots, "history-slots", 0, "metrics history ring slots (0 = 768)")
	fs.DurationVar(&c.SLOFastWindow, "slo-fast", 0, "SLO fast burn-rate window (0 = 5m)")
	fs.DurationVar(&c.SLOSlowWindow, "slo-slow", 0, "SLO slow burn-rate window (0 = 1h)")
	fs.DurationVar(&c.SLOLatencyP95, "slo-latency-p95", 0, fmt.Sprintf("latency-p95 SLO threshold (0 = %v)", p95))
	fs.DurationVar(&c.SLOLatencyP99, "slo-latency-p99", 0, fmt.Sprintf("latency-p99 SLO threshold (0 = %v)", p99))
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "also spill trigger-fired pprof captures to this directory")
	fs.DurationVar(&c.ProfileCPUDuration, "profile-cpu", 0, "CPU profile duration per trigger-fired capture (0 = 1s)")
	fs.DurationVar(&c.ProfileMinGap, "profile-gap", 0, "minimum gap between trigger-fired captures (0 = 60s)")
	fs.Float64Var(&c.ProfileSlowMS, "profile-slow-ms", 0, "capture a profile when a request completes in at least this many ms (0 = off)")
}

// Observer is the observation layer both daemons share: the slow-request
// exemplar log, the metrics-history ring, the SLO engine evaluated after
// every snapshot, and trigger-fired profiling. A profile capture fires when
// an objective starts burning (tagged with the slowlog's slowest request,
// the probable culprit) or when a request completes at or above
// ProfileSlowMS.
// Without a registry or with NoHistory only the slowlog runs.
type Observer struct {
	slowMS   float64
	log      *slog.Logger
	slow     *obs.SlowLog
	hist     *history.History
	slos     *slo.Engine
	profiles *obs.ProfileStore
}

// NewObserver builds and starts the observer of one daemon: prefix names
// its metric families (sufsat, sufrouter), objs are its SLO objectives,
// flight receives the SLO and profile events, and log (nil = silent) a
// line per burn-fired capture.
func NewObserver(cfg ObsConfig, reg *obs.Registry, flight *obs.FlightRecorder, prefix string, objs []slo.Objective, log *slog.Logger) *Observer {
	o := &Observer{slowMS: cfg.ProfileSlowMS, log: log, slow: obs.NewSlowLog(cfg.SlowLogSize)}
	if reg == nil || cfg.NoHistory {
		return o
	}
	o.hist = history.New(reg, history.Config{
		Interval:   cfg.HistoryInterval,
		Slots:      cfg.HistorySlots,
		OnSnapshot: func() { o.slos.Evaluate() },
	})
	o.slos = slo.New(reg, o.hist, flight, prefix, objs, slo.Config{
		FastWindow: cfg.SLOFastWindow,
		SlowWindow: cfg.SLOSlowWindow,
	})
	o.profiles = obs.NewProfileStore(obs.ProfileConfig{
		Dir:         cfg.ProfileDir,
		CPUDuration: cfg.ProfileCPUDuration,
		MinGap:      cfg.ProfileMinGap,
		Flight:      flight,
	})
	o.slos.OnBurn(o.burn)
	const help = "Trigger-fired profile capture attempts by result."
	reg.CounterFunc(prefix+"_profile_captures_total", help,
		func() float64 { return float64(o.profiles.Captured()) }, "result", "captured")
	reg.CounterFunc(prefix+"_profile_captures_total", help,
		func() float64 { return float64(o.profiles.Suppressed()) }, "result", "suppressed")
	o.hist.Start()
	return o
}

// burn fires the profile capture of an objective entering the burning state.
func (o *Observer) burn(name string) {
	reqID, traceID := "", ""
	if top := o.slow.Entries(); len(top) > 0 {
		reqID, traceID = top[0].RequestID, top[0].TraceID
	}
	if o.profiles.TryCapture("slo:"+name, reqID, traceID) && o.log != nil {
		o.log.Info("slo burning, capturing profile", "slo", name)
	}
}

// Finish hands the observer one finished request that took totalMS. entry
// builds its exemplar and runs only when the request enters the slowlog or,
// with profiling on, reaches ProfileSlowMS, where it also fires a capture
// tagged with the entry's IDs.
func (o *Observer) Finish(totalMS float64, entry func() obs.SlowEntry) {
	slow := o.profiles != nil && o.slowMS > 0 && totalMS >= o.slowMS
	candidate := o.slow.Candidate(totalMS)
	if !slow && !candidate {
		return
	}
	e := entry()
	e.TotalMS = totalMS
	if candidate {
		o.slow.Observe(e)
	}
	if slow {
		o.profiles.TryCapture("slowlog", e.RequestID, e.TraceID)
	}
}

// Mount serves /debug/slowlog, /debug/history and /debug/profiles on mux;
// the last two answer 404 while history is off.
func (o *Observer) Mount(mux *http.ServeMux) {
	mux.Handle("/debug/slowlog", o.slow.Handler())
	mux.Handle("/debug/history", o.hist.Handler())
	mux.Handle("/debug/profiles", o.profiles.Handler())
}

// Status adds the history, slo and profiles blocks of /statusz to status
// while history is on.
func (o *Observer) Status(status map[string]any) {
	if o.hist == nil {
		return
	}
	status["history"] = map[string]any{
		"interval_ms": o.hist.Interval().Milliseconds(),
		"snapshots":   o.hist.Snapshots(),
	}
	status["slo"] = o.slos.Status()
	status["profiles"] = map[string]int64{
		"captured":   o.profiles.Captured(),
		"suppressed": o.profiles.Suppressed(),
	}
}

// SLOStatus returns every objective's state (nil while history is off).
func (o *Observer) SLOStatus() []slo.Status { return o.slos.Status() }

// Stop stops the history collector and waits for any in-flight profile
// capture, so a drained daemon leaks no goroutines.
func (o *Observer) Stop() {
	o.hist.Stop()
	o.profiles.Wait()
}
