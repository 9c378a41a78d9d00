package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// RunSoak's fixed load shape: soakClients concurrent clients, every
// soakInvalidEvery-th request an invalid variant, exercising model
// extraction under load.
const (
	soakClients      = 10
	soakInvalidEvery = 5
)

// SoakConfig parameterizes RunSoak: a load test that hammers a running
// sufserved with concurrent retrying clients over the Sample16 workload
// (plus invalid variants), verifying every verdict against the known ground
// truth and counting sheds, degradations, panics and cache hits.
type SoakConfig struct {
	// URL is the base URL of the server under test (e.g. http://127.0.0.1:8080).
	URL string
	// Requests is the total request count across all clients.
	Requests int
	// TimeoutMS is the per-request deadline sent to the server
	// (0 = the server's default deadline).
	TimeoutMS int64
	// BudgetEvery makes every nth request carry a 1-clause CNF budget,
	// forcing a ResourceOut on the eager path so the server's degradation
	// ladder must answer on the lazy path (0 = disabled).
	BudgetEvery int
	// MaxAttempts overrides the clients' retry budget (0 = client default).
	MaxAttempts int
	// CacheMix, in (0,1), replaces that fraction of requests with
	// alpha-renamed spellings of base workload formulas: different request
	// text, identical canonical fingerprint, so a verdict-caching server
	// must answer them from the cache once the base entry is warm. The
	// verdicts are still verified against ground truth — a cache that
	// returned a wrong (or wrongly-transferred) answer shows up as a
	// mismatch. 0 disables the mix.
	CacheMix float64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// SoakReport is the outcome of one soak run.
type SoakReport struct {
	Requests  int
	Completed int64

	// Statuses counts final decision statuses ("valid", "invalid", ...).
	Statuses map[string]int64

	// ShedRetried counts requests that were shed at least once and then
	// succeeded on a retry; ShedGaveUp counts requests whose every attempt
	// was shed.
	ShedRetried int64
	ShedGaveUp  int64

	// DegradedResourceOut counts responses the degradation ladder answered
	// on the lazy path after a blown eager budget; like every response they
	// are verified against ground truth.
	DegradedResourceOut int64

	// Panics counts structured 500s (contained request panics); Mismatches
	// counts verdicts that contradict the known ground truth (must be 0);
	// TransportErrors counts requests that failed below HTTP.
	Panics          int64
	Mismatches      int64
	TransportErrors int64

	// CacheHits counts responses served from the server's verdict cache
	// (Response.Cached); AlphaVariants counts requests issued as renamed
	// spellings under CacheMix. CacheHitRate is hits over completed.
	CacheHits     int64
	AlphaVariants int64
	CacheHitRate  float64
}

// soakItem is one prebuilt workload entry.
type soakItem struct {
	name    string
	formula string
	valid   bool
}

// soakWorkload renders the Sample16 benchmarks (and invalid variants) to
// request syntax once, up front, so clients spend the soak on the wire and
// the server, not in the generator.
func soakWorkload() []soakItem {
	var items []soakItem
	for _, bm := range Sample16() {
		f, _ := bm.Build()
		items = append(items, soakItem{name: bm.Name, formula: f.String(), valid: bm.Valid})
	}
	return items
}

func soakInvalids() []soakItem {
	var items []soakItem
	for _, bm := range InvalidVariants() {
		f, _ := bm.Build()
		items = append(items, soakItem{name: bm.Name, formula: f.String(), valid: bm.Valid})
	}
	return items
}

// RunSoak hammers cfg.URL with soakClients concurrent retrying clients until
// cfg.Requests requests have completed, verifying every verdict, and returns
// the aggregated report. A ctx cancellation stops issuing new requests and
// returns the partial report with ctx's error.
func RunSoak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	valids := soakWorkload()
	invalids := soakInvalids()

	rep := &SoakReport{
		Requests: cfg.Requests,
		Statuses: make(map[string]int64),
	}
	var (
		next atomic.Int64 // request ticket counter
		mu   sync.Mutex   // guards rep during the run
	)

	record := func(f func()) {
		mu.Lock()
		defer mu.Unlock()
		f()
	}

	// The clients share one transport, and the soak closes its idle
	// connections on return. The transport may dial a connection for a
	// request that an idle connection then serves; left open, that never-used
	// connection outlives the soak, and net/http counts it as active on the
	// server for its first 5 seconds, stalling the server's drain.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(cfg.URL)
			c.HTTP.Transport = tr
			if cfg.MaxAttempts > 0 {
				c.MaxAttempts = cfg.MaxAttempts
			}
			// A local soak wants a tight retry loop: the default backoff
			// ceiling (2s) is tuned for WAN clients and would dominate the
			// measured latencies here.
			c.BaseBackoff = 25 * time.Millisecond
			c.MaxBackoff = 500 * time.Millisecond
			for {
				ticket := next.Add(1) - 1
				if ticket >= int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				item := valids[ticket%int64(len(valids))]
				if ticket%soakInvalidEvery == soakInvalidEvery-1 {
					item = invalids[ticket%int64(len(invalids))]
				}
				// Cache mix: deterministically replace the chosen fraction of
				// requests with an alpha-renamed spelling — same fingerprint,
				// different text — keeping the ground-truth verdict. The ×409
				// (coprime to 997) scatters sequential tickets over the
				// residues so the fraction holds for small request counts too.
				if cfg.CacheMix > 0 && float64(ticket*409%997) < cfg.CacheMix*997 {
					item = soakItem{
						name:    item.name + "-alpha",
						formula: AlphaRename(item.formula, int(ticket%7)),
						valid:   item.valid,
					}
					atomic.AddInt64(&rep.AlphaVariants, 1)
				}
				req := &server.Request{
					Formula:   item.formula,
					TimeoutMS: cfg.TimeoutMS,
					WantModel: !item.valid,
				}
				if cfg.BudgetEvery > 0 && ticket%int64(cfg.BudgetEvery) == 0 {
					req.MaxCNFClauses = 1
				}
				resp, err := c.Decide(ctx, req)
				atomic.AddInt64(&rep.Completed, 1)

				if err != nil {
					var re *client.RetryError
					if errors.As(err, &re) {
						record(func() { rep.ShedGaveUp++ })
					} else if ctx.Err() == nil {
						record(func() { rep.TransportErrors++ })
					}
					continue
				}
				record(func() {
					rep.Statuses[resp.Status]++
					if resp.Cached {
						rep.CacheHits++
					}
					if resp.HTTPStatus == http.StatusInternalServerError {
						rep.Panics++
						return
					}
					if resp.ClientAttempts > 1 {
						rep.ShedRetried++
					}
					if resp.Degraded && resp.DegradedReason == "resource-out" {
						rep.DegradedResourceOut++
					}
					switch resp.Status {
					case "valid":
						if !item.valid {
							rep.Mismatches++
						}
					case "invalid":
						if item.valid {
							rep.Mismatches++
						}
						if len(resp.ModelConsts)+len(resp.ModelBools) == 0 && !item.valid {
							// An invalid verdict under want_model must carry
							// the falsifying assignment.
							rep.Mismatches++
						}
					}
				})
			}
		}()
	}
	wg.Wait()

	if rep.Completed > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.Completed)
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log,
			"soak: %d requests, %d clients, %.0fms, shed-gave-up=%d degraded-resource-out=%d panics=%d mismatches=%d\n",
			rep.Completed, soakClients, float64(time.Since(start).Microseconds())/1e3,
			rep.ShedGaveUp, rep.DegradedResourceOut, rep.Panics, rep.Mismatches)
	}
	return rep, ctx.Err()
}
