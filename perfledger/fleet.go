package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/obs"
)

// fleet is the README deployment: sufrouter in front of two
// `sufserved -workers 1`, every other flag at its default. Each daemon is a
// bench.BackendProc, which starts any binary that reports its address the
// way sufserved does, sufrouter included.
type fleet struct {
	backends []*bench.BackendProc
	router   *bench.BackendProc
}

// stopGrace is how long a stopped daemon may drain before it is killed.
const stopGrace = 5 * time.Second

// startFleet starts the two backends in parallel, then the router over them.
func startFleet(ctx context.Context, binDir string) (*fleet, error) {
	fl := &fleet{}
	type started struct {
		p   *bench.BackendProc
		err error
	}
	ch := make(chan started, 2)
	for i := 0; i < 2; i++ {
		go func() {
			p, err := bench.StartBackend(ctx, filepath.Join(binDir, "sufserved"), "-workers", "1")
			ch <- started{p, err}
		}()
	}
	var firstErr error
	for i := 0; i < 2; i++ {
		s := <-ch
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
		if s.p != nil {
			fl.backends = append(fl.backends, s.p)
		}
	}
	if firstErr != nil {
		fl.stop()
		return nil, firstErr
	}
	rt, err := bench.StartBackend(ctx, filepath.Join(binDir, "sufrouter"),
		"-backends", fl.backends[0].URL()+","+fl.backends[1].URL())
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.router = rt
	return fl, nil
}

// stop stops the router first, so no request is routed to a stopped backend,
// and waits until every daemon has exited.
func (fl *fleet) stop() {
	if fl.router != nil {
		fl.router.Stop(stopGrace)
	}
	for _, b := range fl.backends {
		b.Stop(stopGrace)
	}
}

// peakRSSMB sums the peak resident sets of the fleet's three processes. They
// are the only children of this process while a fleet runs: earlier fleets
// and set-up probes have been waited for.
func (fl *fleet) peakRSSMB() (float64, error) {
	pids, err := childPIDs()
	if err != nil {
		return 0, err
	}
	if len(pids) != 1+len(fl.backends) {
		return 0, fmt.Errorf("found %d child processes, the fleet has %d", len(pids), 1+len(fl.backends))
	}
	total := 0.0
	for _, pid := range pids {
		mb, err := peakRSSMB(pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// childPIDs lists the processes whose parent is this one, from /proc.
func childPIDs() ([]string, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := strconv.Itoa(os.Getpid())
	var out []string
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		data, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // it exited while we looked
		}
		// The fields after the parenthesised command name are state, then
		// the parent's PID.
		i := strings.LastIndexByte(string(data), ')')
		if f := strings.Fields(string(data[i+1:])); i >= 0 && len(f) > 1 && f[1] == self {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// counters is a snapshot of the fleet's /metrics counters the ledger reads.
type counters struct {
	hedges, hedgeWins, failovers, shed float64
}

func (c counters) minus(o counters) counters {
	return counters{c.hedges - o.hedges, c.hedgeWins - o.hedgeWins, c.failovers - o.failovers, c.shed - o.shed}
}

// scrape reads the router's hedging and failover counters and the backends'
// shed counters.
func (fl *fleet) scrape(ctx context.Context) (counters, error) {
	var c counters
	rs, err := scrapeOne(ctx, fl.router.URL())
	if err != nil {
		return c, err
	}
	c.hedges = rs.Sum("sufrouter_hedges_total")
	c.hedgeWins = rs.Sum("sufrouter_hedge_wins_total")
	c.failovers = rs.Sum("sufrouter_failovers_total")
	for _, b := range fl.backends {
		bs, err := scrapeOne(ctx, b.URL())
		if err != nil {
			return c, err
		}
		c.shed += bs.Sum("sufsat_shed_total")
	}
	return c, nil
}

func scrapeOne(ctx context.Context, base string) (*obs.PromScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	s, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return s, nil
}
