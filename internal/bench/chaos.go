package bench

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/obs"
	"sufsat/internal/router"
)

// The chaos soak's fixed shape: a hedging router over chaosBackends
// sufserved processes; backend 1 is SIGKILLed every chaosKillInterval and
// restarted half an interval later, and the last backend sits behind a
// fault-injecting TCP proxy cycling latency → clean → blackhole → clean
// windows of chaosFaultWindow each. The load is chaosRequests of RunSoak's
// verifying requests, each with a fleetTimeoutMS deadline.
const (
	chaosBackends     = 3
	chaosRequests     = 250
	chaosKillInterval = 400 * time.Millisecond
	chaosFaultWindow  = 300 * time.Millisecond
)

// fleetTimeoutMS is the per-request deadline of the chaos and membership
// soaks, and the router's default deadline.
const fleetTimeoutMS = 8000

// ChaosReport is the outcome of one chaos soak.
type ChaosReport struct {
	*SoakReport
	Kills    int
	Restarts int

	// RouterTimeouts counts router-synthesized 504s: requests that reached
	// their deadline with no backend answer. These count against
	// availability — a definitive verdict or a clean 503 does not.
	RouterTimeouts int64
	// Availability = 1 − (transport errors + panics + router timeouts) /
	// completed: the fraction of requests that got a definitive answer or a
	// clean, retryable 503.
	Availability float64
}

// RunChaos runs the chaos soak against the sufserved binary at servedBin
// (BuildBinary) and returns its report; log, when non-nil, receives progress
// lines. The router runs in-process (race-instrumented when the caller is);
// the backends are real processes (so SIGKILL is a real crash). On return
// every process is stopped and every router goroutine joined.
func RunChaos(ctx context.Context, servedBin string, log io.Writer) (*ChaosReport, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}

	// Fleet: real sufserved processes.
	procs := make([]*BackendProc, 0, chaosBackends)
	defer func() {
		for _, p := range procs {
			p.Stop(5 * time.Second)
		}
	}()
	urls := make([]string, 0, chaosBackends)
	for i := 0; i < chaosBackends; i++ {
		p, err := StartBackend(ctx, servedBin, "-queue", "64", "-quiet")
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		urls = append(urls, p.URL())
	}
	logf("chaos: %d backends up", len(procs))

	// Network-fault proxy in front of the last backend: the router dials the
	// proxy, so latency/blackhole windows hit the wire the router sees, not
	// the backend process.
	proxy, err := faultinject.NewProxy(strings.TrimPrefix(urls[len(urls)-1], "http://"))
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	urls[len(urls)-1] = "http://" + proxy.Addr()
	proxy.SetLatency(250 * time.Millisecond)

	sr, err := startSoakRouter(urls)
	if err != nil {
		return nil, err
	}
	defer sr.close() //nolint:errcheck

	// Chaos drivers.
	chaosCtx, stopChaos := context.WithCancel(ctx)
	defer stopChaos()
	var chaosWG sync.WaitGroup
	var kills, restarts atomic.Int64
	victim := procs[1]
	chaosWG.Add(2)
	go func() {
		defer chaosWG.Done()
		for {
			if sleepDone(chaosCtx, chaosKillInterval) {
				return
			}
			victim.Kill() //nolint:errcheck
			kills.Add(1)
			logf("chaos: killed %s", victim.URL())
			if sleepDone(chaosCtx, chaosKillInterval/2) {
				// Soak over mid-outage: restart so the deferred Stop has a
				// live process and the fleet ends whole.
				if err := victim.Restart(context.Background()); err == nil {
					restarts.Add(1)
				}
				return
			}
			if err := victim.Restart(chaosCtx); err != nil {
				if chaosCtx.Err() == nil {
					logf("chaos: restart failed: %v", err)
				} else if err := victim.Restart(context.Background()); err == nil {
					restarts.Add(1)
				}
				return
			}
			restarts.Add(1)
			logf("chaos: restarted %s", victim.URL())
		}
	}()
	go func() {
		defer chaosWG.Done()
		modes := []faultinject.NetFault{
			faultinject.FaultLatency, faultinject.FaultNone,
			faultinject.FaultBlackhole, faultinject.FaultNone,
		}
		for i := 0; ; i++ {
			if sleepDone(chaosCtx, chaosFaultWindow) {
				proxy.SetMode(faultinject.FaultNone)
				return
			}
			m := modes[i%len(modes)]
			proxy.SetMode(m)
			logf("chaos: proxy mode %s", m)
		}
	}()

	// The load itself: RunSoak's verifying clients pointed at the router.
	rep, err := RunSoak(ctx, SoakConfig{
		URL:       sr.front.URL,
		Requests:  chaosRequests,
		TimeoutMS: fleetTimeoutMS,
		Log:       log,
	})
	stopChaos()
	chaosWG.Wait()
	if err != nil {
		return nil, err
	}

	crep := &ChaosReport{
		SoakReport:     rep,
		Kills:          int(kills.Load()),
		Restarts:       int(restarts.Load()),
		RouterTimeouts: rep.Statuses["timeout"],
	}
	if rep.Completed > 0 {
		crep.Availability = 1 - float64(rep.TransportErrors+rep.Panics+crep.RouterTimeouts)/float64(rep.Completed)
	}

	// Orderly teardown inside the run (not the deferred fallback) so leak
	// checks around RunChaos see every router goroutine joined.
	if err := sr.close(); err != nil {
		return nil, err
	}
	logf("chaos: done — availability=%.4f kills=%d restarts=%d",
		crep.Availability, crep.Kills, crep.Restarts)
	return crep, nil
}

// soakRouter is the in-process router the chaos and membership soaks drive,
// served on a loopback httptest front end.
type soakRouter struct {
	rt     *router.Router
	front  *httptest.Server
	closed bool
}

// startSoakRouter starts a router over urls with a fast probe cadence and
// short breaker cooldowns, so recovery happens within the soak, automatic
// (p95-derived) hedging, and generous retry budgets, so the scripted faults —
// not budget exhaustion — dominate what the soak sees.
func startSoakRouter(urls []string) (*soakRouter, error) {
	rt, err := router.New(router.Config{
		Backends:       urls,
		Registry:       obs.NewRegistry(),
		HealthInterval: 100 * time.Millisecond,
		ProbeTimeout:   500 * time.Millisecond,
		MaxInFlight:    1024,
		HedgeDelay:     0, // auto: p95-derived
		HedgeRatio:     0.5,
		HedgeBurst:     32,
		FailoverRatio:  0.5,
		FailoverBurst:  32,
		DefaultTimeout: fleetTimeoutMS * time.Millisecond,
		Breaker: router.BreakerConfig{
			BaseCooldown: 200 * time.Millisecond,
			MaxCooldown:  2 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	return &soakRouter{rt: rt, front: httptest.NewServer(rt.Handler())}, nil
}

// close stops the front end, drains the router and drops the default
// transport's idle connections, so a leak check after it sees every router
// goroutine joined. Calls after the first do nothing.
func (s *soakRouter) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.front.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.rt.Shutdown(ctx)
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// sleepDone sleeps d or until ctx is done; it reports whether ctx ended the
// sleep.
func sleepDone(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return true
	case <-t.C:
		return false
	}
}

// scrapeProm fetches and strict-parses one Prometheus exposition.
func scrapeProm(url string) (*obs.PromScrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("bench: scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}
