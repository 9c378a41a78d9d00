package router

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sufsat/internal/faultinject"
	"sufsat/internal/server"
)

// TestParseBackendList pins the per-entry validation contract: every bad
// entry is reported (not just the first), duplicates name both entries, and
// good lists normalize (trim, drop empties, strip trailing slashes).
func TestParseBackendList(t *testing.T) {
	got, err := ParseBackendList([]string{" http://a:8080/ ", "", "https://b:9090", "\t"})
	if err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	want := []string{"http://a:8080", "https://b:9090"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("normalized = %v, want %v", got, want)
	}

	_, err = ParseBackendList([]string{
		"ftp://a:1",    // bad scheme
		"http://",      // no host
		"http://ok:1",  // fine
		"http://ok:1/", // duplicate of the fine one after normalization
		"://not-a-url at all",
	})
	if err == nil {
		t.Fatal("invalid list accepted")
	}
	msg := err.Error()
	for _, frag := range []string{`"ftp://a:1"`, "missing host", "duplicate of entry 3", "entry 5"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q does not mention %q — per-entry reporting broken", msg, frag)
		}
	}
	if strings.Contains(msg, "entry 3 ") && strings.Contains(msg, `entry 3 "http://ok:1":`) {
		t.Errorf("valid entry reported as an error: %q", msg)
	}
}

// TestReconfigureDeclarative drives the declarative path directly: a PUT-
// shaped desired set that adds one backend and removes another must swap the
// view atomically, keep the surviving member's backend struct (breaker,
// latency window) intact, bump the epoch, and keep routing.
func TestReconfigureDeclarative(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, a, b)
	c := newFakeBackend(t, "ok")

	if rt.Epoch() != 1 {
		t.Fatalf("initial epoch %d, want 1", rt.Epoch())
	}
	survivor := rt.view.Load().members[a.url()]

	ch, err := rt.Reconfigure([]string{a.url(), c.url()})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if ch.Epoch != 2 || rt.Epoch() != 2 {
		t.Fatalf("epoch after reconfigure = %d/%d, want 2", ch.Epoch, rt.Epoch())
	}
	if len(ch.Added) != 1 || ch.Added[0] != c.url() {
		t.Fatalf("Added = %v, want [%s]", ch.Added, c.url())
	}
	if len(ch.Removed) != 1 || ch.Removed[0] != b.url() {
		t.Fatalf("Removed = %v, want [%s]", ch.Removed, b.url())
	}
	if ch.KeysMovedRatio <= 0 || ch.KeysMovedRatio > 0.9 {
		t.Fatalf("KeysMovedRatio = %v, want a sane nonzero fraction", ch.KeysMovedRatio)
	}
	if got := rt.view.Load().members[a.url()]; got != survivor {
		t.Fatal("surviving member's backend struct was rebuilt — breaker/latency state lost")
	}
	if _, ok := rt.member(b.url()); ok {
		t.Fatal("removed backend still a member")
	}
	if nb, ok := rt.member(c.url()); !ok {
		t.Fatal("added backend not a member")
	} else if nb.memberState() != MemberJoining {
		t.Fatalf("added backend state %v, want joining", nb.memberState())
	}

	// The pool still answers, and a winning response activates the joiner.
	for i := 0; i < 8; i++ {
		resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula})
		if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
			t.Fatalf("post-reconfigure decide %d: status %d / %q", i, hresp.StatusCode, resp.Status)
		}
	}

	// A no-op reconfigure must not bump the epoch.
	ch, err = rt.Reconfigure([]string{a.url(), c.url()})
	if err != nil {
		t.Fatalf("no-op Reconfigure: %v", err)
	}
	if ch.Epoch != 2 || rt.Epoch() != 2 {
		t.Fatalf("no-op reconfigure moved the epoch to %d", rt.Epoch())
	}

	// An empty desired set is refused outright.
	if _, err := rt.Reconfigure(nil); err == nil {
		t.Fatal("empty desired set accepted")
	}
}

// adminDo sends one admin request and decodes the JSON answer into out.
func adminDo(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rdr = bytes.NewReader(raw)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

// TestAdminBackendsEndpoint walks the admin surface end to end: GET status,
// PUT desired set, POST verbs, and the error contract (400 with per-entry
// messages, 404 for unknown members).
func TestAdminBackendsEndpoint(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, _ := newTestRouter(t, Config{HedgeDelay: -1}, a, b)
	admin := srv.URL + "/admin/backends"

	var st adminStatus
	adminDo(t, http.MethodGet, admin, nil, &st)
	if st.Epoch != 1 || len(st.Backends) != 2 {
		t.Fatalf("GET: epoch=%d backends=%d, want 1/2", st.Epoch, len(st.Backends))
	}
	for _, m := range st.Backends {
		if m.State != "active" || m.Breaker != "closed" {
			t.Fatalf("GET: member %s state=%s breaker=%s, want active/closed", m.URL, m.State, m.Breaker)
		}
	}

	// POST drain: out of the ring, still a member.
	var ch MembershipChange
	resp := adminDo(t, http.MethodPost, admin, adminVerb{Verb: "drain", Backend: b.url()}, &ch)
	if resp.StatusCode != http.StatusOK || ch.Epoch != 2 || len(ch.Drained) != 1 {
		t.Fatalf("drain: HTTP %d change %+v", resp.StatusCode, ch)
	}
	if got := rt.Backends(); len(got) != 1 || got[0] != a.url() {
		t.Fatalf("ring after drain = %v, want just %s", got, a.url())
	}
	adminDo(t, http.MethodGet, admin, nil, &st)
	if len(st.Backends) != 2 {
		t.Fatalf("drained member vanished from GET (%d backends)", len(st.Backends))
	}
	for _, m := range st.Backends {
		if m.URL == b.url() && m.State != "draining" {
			t.Fatalf("drained member state %q, want draining", m.State)
		}
	}

	// /statusz reflects the epoch and the membership column.
	sresp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatalf("statusz: %v", err)
	}
	var sb bytes.Buffer
	sb.ReadFrom(sresp.Body) //nolint:errcheck
	sresp.Body.Close()
	stext := sb.String()
	for _, frag := range []string{"epoch=2", "draining", "MEMBER"} {
		if !strings.Contains(stext, frag) {
			t.Errorf("statusz missing %q:\n%s", frag, stext)
		}
	}

	// POST add on a draining member reactivates it.
	resp = adminDo(t, http.MethodPost, admin, adminVerb{Verb: "add", Backend: b.url()}, &ch)
	if resp.StatusCode != http.StatusOK || ch.Epoch != 3 || len(ch.Reactivated) != 1 {
		t.Fatalf("reactivate: HTTP %d change %+v", resp.StatusCode, ch)
	}
	if got := rt.Backends(); len(got) != 2 {
		t.Fatalf("ring after reactivate = %v, want both members", got)
	}

	// PUT a desired set that removes b again.
	resp = adminDo(t, http.MethodPut, admin, adminDesired{Backends: []string{a.url()}}, &ch)
	if resp.StatusCode != http.StatusOK || ch.Epoch != 4 || len(ch.Removed) != 1 {
		t.Fatalf("PUT: HTTP %d change %+v", resp.StatusCode, ch)
	}

	// Error contract: unknown member 404, invalid entries 400 with every
	// entry named, unknown verb 400, removing the last member 400.
	var aerr map[string]string
	if resp := adminDo(t, http.MethodPost, admin, adminVerb{Verb: "drain", Backend: "http://nope:1"}, &aerr); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown: HTTP %d, want 404", resp.StatusCode)
	}
	if resp := adminDo(t, http.MethodPut, admin, adminDesired{Backends: []string{"ftp://x", "http://"}}, &aerr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT invalid: HTTP %d, want 400", resp.StatusCode)
	} else if !strings.Contains(aerr["error"], "ftp://x") || !strings.Contains(aerr["error"], "missing host") {
		t.Fatalf("PUT invalid: error %q lacks per-entry messages", aerr["error"])
	}
	if resp := adminDo(t, http.MethodPost, admin, adminVerb{Verb: "explode", Backend: a.url()}, &aerr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown verb: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := adminDo(t, http.MethodPost, admin, adminVerb{Verb: "remove", Backend: a.url()}, &aerr); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("remove last: HTTP %d, want 400", resp.StatusCode)
	}

	// The membership metric families track all of it.
	scr := scrapeRouter(t, srv.URL)
	if v, _ := scr.Value("sufrouter_membership_epoch"); v != 4 {
		t.Errorf("sufrouter_membership_epoch = %v, want 4", v)
	}
	if v, _ := scr.Value("sufrouter_membership_changes_total", "verb", "drain"); v != 1 {
		t.Errorf("changes_total{drain} = %v, want 1", v)
	}
	if v, _ := scr.Value("sufrouter_membership_changes_total", "verb", "join"); v != 1 {
		t.Errorf("changes_total{join} = %v, want 1 (the reactivation)", v)
	}
	if v, _ := scr.Value("sufrouter_membership_changes_total", "verb", "remove"); v != 1 {
		t.Errorf("changes_total{remove} = %v, want 1", v)
	}
	if v, _ := scr.Value("sufrouter_backend_membership", "backend", b.url()); v != -1 {
		t.Errorf("removed backend membership gauge = %v, want -1", v)
	}
	if v, _ := scr.Value("sufrouter_membership_keys_moved_total"); v <= 0 {
		t.Errorf("keys_moved_total = %v, want > 0", v)
	}
}

// TestProberReapedOnRemove is the leak gate for the prober lifecycle fix:
// add→remove churn on a live router (probers actively running) must leave
// zero goroutines behind — each removal reaps its member's prober
// synchronously instead of deferring to router Shutdown.
func TestProberReapedOnRemove(t *testing.T) {
	a := newFakeBackend(t, "ok")
	rt, _, _ := newTestRouter(t, Config{
		HedgeDelay:     -1,
		HealthInterval: 10 * time.Millisecond,
		ProbeTimeout:   200 * time.Millisecond,
	}, a)
	extra := newFakeBackend(t, "ok")

	// Let the resident backend's prober reach steady state (warm keep-alive
	// conn dialed) before the baseline goroutine snapshot, so the only moving
	// parts inside the check are the churned member's.
	waitFor(t, 5*time.Second, func() bool { return a.readyCount() >= 2 }, "resident prober never started")
	time.Sleep(50 * time.Millisecond)

	err := faultinject.LeakCheck(func() {
		for i := 0; i < 8; i++ {
			if _, err := rt.AddBackend(extra.url()); err != nil {
				t.Fatalf("AddBackend %d: %v", i, err)
			}
			// Let the joiner's prober run at least one probe cycle.
			time.Sleep(15 * time.Millisecond)
			if _, err := rt.RemoveBackend(extra.url()); err != nil {
				t.Fatalf("RemoveBackend %d: %v", i, err)
			}
		}
	}, 5*time.Second)
	if err != nil {
		t.Fatalf("goroutine leak across add→remove churn: %v", err)
	}
	if got := rt.Epoch(); got != 17 {
		t.Fatalf("epoch after 16 changes = %d, want 17", got)
	}
}

// TestDrainingNeverHedgeOrFailoverTarget is the drain-vs-hedge satellite: a
// draining backend sits in the ring snapshot of already-admitted requests,
// but must not receive the hedge (primary hangs) or the failover (primary
// errors) — the next non-draining ring node gets them instead.
func TestDrainingNeverHedgeOrFailoverTarget(t *testing.T) {
	a, b, c := newFakeBackend(t, "ok"), newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: 20 * time.Millisecond}, a, b, c)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 3)
	if _, err := rt.DrainBackend(order[1]); err != nil {
		t.Fatalf("DrainBackend: %v", err)
	}

	// Hedge case: the primary hangs; the hedge must skip the draining
	// order[1] and land on order[2].
	byURL[order[0]].set("hang", 0)
	resp, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula, TimeoutMS: 5000})
	if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
		t.Fatalf("hedge past draining: status %d / %q", hresp.StatusCode, resp.Status)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[2] {
		t.Fatalf("hedge went to %s, want %s (order[1] is draining)", who, order[2])
	}
	if d, _ := byURL[order[1]].counts(); d != 0 {
		t.Fatalf("draining backend saw %d decides via hedge", d)
	}

	// Failover case: the primary cuts connections; same expectation.
	byURL[order[0]].set("error", 0)
	resp, hresp = postDecide(t, srv.URL, &server.Request{Formula: testFormula})
	if hresp.StatusCode != http.StatusOK || resp.Status != "valid" {
		t.Fatalf("failover past draining: status %d / %q", hresp.StatusCode, resp.Status)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[2] {
		t.Fatalf("failover went to %s, want %s (order[1] is draining)", who, order[2])
	}
	if d, _ := byURL[order[1]].counts(); d != 0 {
		t.Fatalf("draining backend saw %d decides via failover", d)
	}
}

// TestDrainInFlightWinnerStillCounts: draining a backend mid-request must
// not orphan the attempt — the in-flight winner still answers and its
// success still lands in the member's breaker and latency bookkeeping
// (the backend struct is shared across views).
func TestDrainInFlightWinnerStillCounts(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: -1}, a, b)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 2)
	primary := rt.view.Load().members[order[0]]
	byURL[order[0]].set("ok", 250*time.Millisecond)

	// Prime the breaker's error EWMA so the winner's ReportSuccess is
	// observable as a strict decay.
	primary.br.ReportFailure(false)
	before := primary.br.ErrorRate()
	if before <= 0 {
		t.Fatalf("primed error rate = %v, want > 0", before)
	}

	done := make(chan *http.Response, 1)
	go func() {
		_, hresp := postDecide(t, srv.URL, &server.Request{Formula: testFormula, TimeoutMS: 5000})
		done <- hresp
	}()
	waitFor(t, 2*time.Second, func() bool {
		d, _ := byURL[order[0]].counts()
		return d >= 1
	}, "request never reached the primary")
	if _, err := rt.DrainBackend(order[0]); err != nil {
		t.Fatalf("DrainBackend: %v", err)
	}

	hresp := <-done
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request on a drained backend: HTTP %d", hresp.StatusCode)
	}
	if who := hresp.Header.Get("X-Sufrouter-Backend"); who != order[0] {
		t.Fatalf("winner %s, want the draining primary %s", who, order[0])
	}
	if primary.memberState() != MemberDraining {
		t.Fatalf("primary state %v, want draining", primary.memberState())
	}
	if after := primary.br.ErrorRate(); after >= before {
		t.Fatalf("error rate %v -> %v: the draining winner's success never reached the breaker", before, after)
	}
	if primary.lat.Quantile(0.5) == 0 {
		t.Fatal("the draining winner's latency was never observed")
	}
}

// TestRemoveDuringInFlight: removing a backend while it serves a request
// must not break the request — the shared backend struct finishes the
// attempt under the old view while the new view no longer knows the member.
func TestRemoveDuringInFlight(t *testing.T) {
	a, b := newFakeBackend(t, "ok"), newFakeBackend(t, "ok")
	rt, srv, byURL := newTestRouter(t, Config{HedgeDelay: -1}, a, b)

	order := rt.view.Load().ring.Order(mustFingerprint(t), 2)
	byURL[order[0]].set("ok", 250*time.Millisecond)

	done := make(chan *server.Response, 1)
	go func() {
		resp, _ := postDecide(t, srv.URL, &server.Request{Formula: testFormula, TimeoutMS: 5000})
		done <- resp
	}()
	waitFor(t, 2*time.Second, func() bool {
		d, _ := byURL[order[0]].counts()
		return d >= 1
	}, "request never reached the primary")
	if _, err := rt.RemoveBackend(order[0]); err != nil {
		t.Fatalf("RemoveBackend: %v", err)
	}
	if _, ok := rt.member(order[0]); ok {
		t.Fatal("removed backend still a member")
	}

	resp := <-done
	if resp.Status != "valid" {
		t.Fatalf("in-flight request on a removed backend: status %q", resp.Status)
	}
}
