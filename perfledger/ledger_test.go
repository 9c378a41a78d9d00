package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"testing"
)

func TestMain(m *testing.M) {
	if serveProbe() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the ledger must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLedgerSmoke runs every workload briefly in both modes — one round over
// five formulas, two-second service phases — and checks that each prints
// exactly the metrics BENCHMARK.json declares, with no wrong verdict.
func TestLedgerSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the ledger has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the ledger's is %s: %s", i, d.Workloads[i], w.Name, w.Why)
		}
	}
	sameDefs(t, "end_to_end", d.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", d.PerLayer, perLayer)

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "sufsat/cmd/sufserved", "sufsat/cmd/sufrouter")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{Seed: 7, Seconds: 2, Trace: trace, BinDir: bin}
			if !w.Service {
				cfg.Seconds = 0.001 // one round
			}
			r, err := run(context.Background(), cfg, w, w.Population()[:5])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if r.Wrong != 0 || r.Failed != 0 {
				t.Errorf("%s trace=%v: %d wrong verdicts, %d failed of %d", w.Name, trace, r.Wrong, r.Failed, r.Attempted)
			}
			var buf bytes.Buffer
			if err := r.writeLine(&buf); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var line struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if got := names(line.Metrics); !equal(got, defNames(want)) {
				t.Errorf("%s trace=%v prints metrics %v, BENCHMARK.json declares %v", w.Name, trace, got, defNames(want))
			}
			if !line.Correct {
				t.Errorf("%s trace=%v: correct is false", w.Name, trace)
			}
		}
	}
}

func sameDefs(t *testing.T, section string, declared, ledger []metricDef) {
	t.Helper()
	if len(declared) != len(ledger) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the ledger reports %d", section, len(declared), len(ledger))
		return
	}
	for i := range ledger {
		if declared[i] != ledger[i] {
			t.Errorf("%s metric %d: BENCHMARK.json has %+v, the ledger %+v", section, i, declared[i], ledger[i])
		}
	}
}

func names(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
