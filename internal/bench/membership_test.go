package bench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/faultinject"
	"sufsat/internal/server"
	"sufsat/internal/server/client"
)

// TestMembershipSoak is the rolling-upgrade chaos gate (make
// membership-soak): every backend of a live 3-node fleet rolled through
// drain → SIGKILL → restart → rejoin under verifying load, then a cold
// backend joined mid-soak via the declarative PUT. The membership contract:
// zero verdict mismatches, 99%+ availability across the roll, the epoch
// lands exactly where the choreography predicts (kills must not move it),
// every step moves only ~1/N of the sampled keyspace, warm survivors keep
// serving cache hits after the join, and the router tears down without
// leaking a goroutine. Run with -race in CI.
func TestMembershipSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("membership soak skipped in -short mode")
	}
	served, err := bench.BuildBinary(t.TempDir(), "sufsat/cmd/sufserved")
	if err != nil {
		t.Fatal(err)
	}

	var rep *bench.MembershipReport
	lerr := faultinject.LeakCheck(func() {
		var err error
		rep, err = bench.RunMembershipChaos(context.Background(), served, testLogWriter{t})
		if err != nil {
			t.Fatalf("membership chaos: %v", err)
		}
	}, 10*time.Second)
	if lerr != nil {
		t.Errorf("goroutine leak after membership soak: %v", lerr)
	}

	if rep.Mismatches != 0 {
		t.Errorf("%d verdicts contradicted ground truth across the roll", rep.Mismatches)
	}
	if rep.Panics != 0 {
		t.Errorf("%d structured 500s across the roll", rep.Panics)
	}
	if rep.Availability < 0.99 {
		t.Errorf("availability %.4f < 0.99 (transport=%d panics=%d router-timeouts=%d)",
			rep.Availability, rep.TransportErrors, rep.Panics, rep.RouterTimeouts)
	}
	if rep.FinalEpoch != rep.ExpectedEpoch {
		t.Errorf("final epoch %d, want %d — a kill/restart moved the epoch or a step was lost",
			rep.FinalEpoch, rep.ExpectedEpoch)
	}
	if rep.MoveBoundViolations != 0 {
		t.Errorf("%d membership steps moved more than their 1/N fair share + slack: %+v",
			rep.MoveBoundViolations, rep.Steps)
	}
	// 3 × (drain, kill, restart, rejoin) + cold-join.
	if want := 3*4 + 1; len(rep.Steps) != want {
		t.Errorf("recorded %d steps, want %d", len(rep.Steps), want)
	}
	if rep.SurvivorHitsAfterJoin <= rep.SurvivorHitsBeforeJoin {
		t.Errorf("survivor cache hits %0.f → %.0f across the cold join — warm survivors stopped serving hits",
			rep.SurvivorHitsBeforeJoin, rep.SurvivorHitsAfterJoin)
	}
}

// adminState mirrors the GET /admin/backends response shape.
type adminState struct {
	Epoch    uint64 `json:"epoch"`
	Backends []struct {
		URL   string `json:"url"`
		State string `json:"state"`
	} `json:"backends"`
}

func getAdmin(t *testing.T, base string) adminState {
	t.Helper()
	resp, err := http.Get(base + "/admin/backends")
	if err != nil {
		t.Fatalf("GET /admin/backends: %v", err)
	}
	defer resp.Body.Close()
	var st adminState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode admin status: %v", err)
	}
	return st
}

// TestRouterMembershipProcess pins, against a real sufrouter process, that
// the SIGHUP -backends-file reload and the admin PUT drive the same
// declarative Reconfigure path: each advances the same epoch counter by one
// effective change, both reshape the same member set, and routing keeps
// working throughout.
func TestRouterMembershipProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("process membership test skipped in -short mode")
	}
	dir := t.TempDir()
	served, err := bench.BuildBinary(dir, "sufsat/cmd/sufserved")
	if err != nil {
		t.Fatal(err)
	}
	routerBin, err := bench.BuildBinary(dir, "sufsat/cmd/sufrouter")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	backends := make([]*bench.BackendProc, 3)
	for i := range backends {
		if backends[i], err = bench.StartBackend(ctx, served, "-quiet"); err != nil {
			t.Fatal(err)
		}
		defer backends[i].Stop(5 * time.Second)
	}

	// The router starts from a backends file naming the first two.
	file := filepath.Join(dir, "backends.txt")
	writeFile := func(urls ...string) {
		var buf bytes.Buffer
		buf.WriteString("# fleet membership\n")
		for _, u := range urls {
			fmt.Fprintln(&buf, u)
		}
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write backends file: %v", err)
		}
	}
	writeFile(backends[0].URL(), backends[1].URL())

	rp, err := bench.StartBackend(ctx, routerBin,
		"-backends-file", file,
		"-health-interval", "100ms",
		"-probe-timeout", "500ms",
		"-hedge-delay", "20ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Stop(5 * time.Second)

	if st := getAdmin(t, rp.URL()); st.Epoch != 1 || len(st.Backends) != 2 {
		t.Fatalf("initial admin state: epoch=%d backends=%d, want 1/2", st.Epoch, len(st.Backends))
	}

	// SIGHUP leg: extend the file with the third backend and signal. The
	// reload must land as epoch 2 with three members — the same observable
	// outcome an admin PUT of that desired set would produce.
	writeFile(backends[0].URL(), backends[1].URL(), backends[2].URL())
	if err := rp.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := getAdmin(t, rp.URL()); st.Epoch == 2 {
			if len(st.Backends) != 3 {
				t.Fatalf("after SIGHUP: %d members, want 3", len(st.Backends))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP never reconfigured the pool (epoch stuck at 1)")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// A SIGHUP with an unchanged file is a no-op reconfigure: same desired
	// set, so the epoch must NOT move — pinning that the reload really runs
	// the declarative diff, not a teardown/rebuild.
	if err := rp.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if st := getAdmin(t, rp.URL()); st.Epoch != 2 {
		t.Fatalf("no-op SIGHUP moved the epoch to %d", st.Epoch)
	}

	// PUT leg: declare the original pair, removing the third backend through
	// the very same path the SIGHUP used — one more effective change, epoch 3.
	body, _ := json.Marshal(map[string][]string{
		"backends": {backends[0].URL(), backends[1].URL()},
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, rp.URL()+"/admin/backends", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT /admin/backends: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /admin/backends: HTTP %d", resp.StatusCode)
	}
	if st := getAdmin(t, rp.URL()); st.Epoch != 3 || len(st.Backends) != 2 {
		t.Fatalf("after PUT: epoch=%d backends=%d, want 3/2", st.Epoch, len(st.Backends))
	}

	// Routing still works over the reshaped pool.
	c := client.New(rp.URL())
	for i := 1; i <= 8; i++ {
		resp, err := c.Decide(ctx, &server.Request{Formula: chainFormula(i), TimeoutMS: 8000})
		if err != nil {
			t.Fatalf("decide after reconfigurations: %v", err)
		}
		if resp.Status != "valid" {
			t.Fatalf("decide after reconfigurations: status %q, want valid", resp.Status)
		}
	}

	// The epoch is also on the metrics surface of the real process.
	scrape := scrapeStrict(t, rp.URL()+"/metrics")
	if v, ok := scrape.Value("sufrouter_membership_epoch"); !ok || v != 3 {
		t.Errorf("sufrouter_membership_epoch = %v (ok=%v), want 3", v, ok)
	}
}
