package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sufsat/internal/obs"
	"sufsat/internal/obs/slo"
	"sufsat/internal/server"
)

// observerRig is one Observer with its registry and a mux it is mounted on.
type observerRig struct {
	o   *server.Observer
	reg *obs.Registry
	mux *http.ServeMux
}

func newObserverRig(t *testing.T, prefix string, cfg server.ObsConfig) *observerRig {
	t.Helper()
	objs := slo.ServerObjectives(0, 0, true)
	if prefix == "sufrouter" {
		objs = slo.RouterObjectives(0, 0)
	}
	r := &observerRig{reg: obs.NewRegistry(), mux: http.NewServeMux()}
	r.o = server.NewObserver(cfg, r.reg, obs.NewFlightRecorder(64), prefix, objs, nil)
	t.Cleanup(r.o.Stop)
	r.o.Mount(r.mux)
	return r
}

// get serves one GET through the mounted endpoints.
func (r *observerRig) get(path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// profiles decodes /debug/profiles.
func (r *observerRig) profiles(t *testing.T) obs.ProfileIndex {
	t.Helper()
	var idx obs.ProfileIndex
	if err := json.Unmarshal(r.get("/debug/profiles").Body.Bytes(), &idx); err != nil {
		t.Fatalf("decode /debug/profiles: %v", err)
	}
	return idx
}

// captureSamples returns the registry's <prefix>_profile_captures_total
// samples by rendered labels.
func (r *observerRig) captureSamples(prefix string) map[string]float64 {
	out := map[string]float64{}
	r.reg.VisitSamples(func(s obs.SampleInfo) {
		if s.Name == prefix+"_profile_captures_total" {
			out[s.Labels] = s.Value
		}
	})
	return out
}

// TestObserverSlowProfile pins the one -profile-slow-ms rule at both tiers:
// every completion at or above the threshold fires a capture tagged with
// its IDs, whether or not it enters the slowlog, and the exemplar is built
// only for a request that the slowlog or the trigger uses.
func TestObserverSlowProfile(t *testing.T) {
	for _, prefix := range []string{"sufsat", "sufrouter"} {
		t.Run(prefix, func(t *testing.T) {
			r := newObserverRig(t, prefix, server.ObsConfig{
				SlowLogSize:        1,
				HistoryInterval:    time.Hour,
				ProfileCPUDuration: time.Millisecond,
				ProfileMinGap:      time.Nanosecond,
				ProfileSlowMS:      50,
			})
			built := 0
			finish := func(id string, totalMS float64) {
				r.o.Finish(totalMS, func() obs.SlowEntry {
					built++
					return obs.SlowEntry{RequestID: id, Status: "valid"}
				})
			}
			waitCaptures := func(n int64) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for r.profiles(t).Captures < n {
					if time.Now().After(deadline) {
						t.Fatalf("captures never reached %d: %+v", n, r.profiles(t))
					}
					time.Sleep(time.Millisecond)
				}
			}

			finish("first", 1000) // fills the one-entry slowlog; over the bar
			waitCaptures(1)
			finish("fast", 10)   // neither a slowlog candidate nor over the bar
			finish("second", 60) // below the slowlog's 1000 ms, over the bar
			waitCaptures(2)

			if built != 2 {
				t.Errorf("exemplar built %d times, want 2 (not for the fast request)", built)
			}
			var slow obs.SlowLogDump
			if err := json.Unmarshal(r.get("/debug/slowlog").Body.Bytes(), &slow); err != nil {
				t.Fatal(err)
			}
			if len(slow.Entries) != 1 || slow.Entries[0].RequestID != "first" || slow.Entries[0].TotalMS != 1000 {
				t.Errorf("slowlog entries %+v, want only first at 1000 ms", slow.Entries)
			}
			idx := r.profiles(t)
			if idx.Captures != 2 || idx.Suppressed != 0 {
				t.Fatalf("captures %d suppressed %d, want 2 and 0", idx.Captures, idx.Suppressed)
			}
			ids := map[string]bool{}
			for _, p := range idx.Profiles {
				if p.Trigger != "slowlog" {
					t.Errorf("profile trigger %q, want slowlog", p.Trigger)
				}
				ids[p.RequestID] = true
			}
			if !ids["first"] || !ids["second"] || len(ids) != 2 {
				t.Errorf("profiles tagged %v, want first and second", ids)
			}
			got := r.captureSamples(prefix)
			if got[`{result="captured"}`] != 2 || len(got) != 2 {
				t.Errorf("%s_profile_captures_total = %v, want captured 2 beside suppressed", prefix, got)
			}
			status := map[string]any{}
			r.o.Status(status)
			for _, key := range []string{"history", "slo", "profiles"} {
				if _, ok := status[key]; !ok {
					t.Errorf("/statusz lacks %q: %v", key, status)
				}
			}
		})
	}
}

// TestObserverNoHistory: with history off only the slowlog runs — the
// history and profile endpoints answer 404, no capture counter is
// registered and /statusz gains no history blocks.
func TestObserverNoHistory(t *testing.T) {
	for _, prefix := range []string{"sufsat", "sufrouter"} {
		t.Run(prefix, func(t *testing.T) {
			r := newObserverRig(t, prefix, server.ObsConfig{NoHistory: true, ProfileSlowMS: 1})
			r.o.Finish(5, func() obs.SlowEntry { return obs.SlowEntry{RequestID: "x", Status: "valid"} })
			for path, want := range map[string]int{
				"/debug/slowlog":                  http.StatusOK,
				"/debug/history?family=" + prefix: http.StatusNotFound,
				"/debug/profiles":                 http.StatusNotFound,
			} {
				if code := r.get(path).Code; code != want {
					t.Errorf("GET %s: HTTP %d, want %d", path, code, want)
				}
			}
			if got := r.captureSamples(prefix); len(got) != 0 {
				t.Errorf("%s_profile_captures_total registered with history off: %v", prefix, got)
			}
			status := map[string]any{}
			r.o.Status(status)
			if len(status) != 0 {
				t.Errorf("/statusz blocks with history off: %v", status)
			}
			if r.o.SLOStatus() != nil {
				t.Errorf("SLO status with history off: %v", r.o.SLOStatus())
			}
		})
	}
}
