package main

import (
	"context"
	"testing"

	"sufsat/internal/core"
	"sufsat/internal/obs"
	"sufsat/internal/suf"
)

// TestLayerDriverMatchesDecide guards the traced replay against drift from
// core.DecideCtx: on every paper formula the layer driver must reach the
// same verdict on a CNF of the same size, or its layer times would describe
// a different computation.
func TestLayerDriverMatchesDecide(t *testing.T) {
	for _, name := range []string{"paper-hybrid", "paper-invariant"} {
		w, _ := workloadByName(name)
		for _, it := range w.Population() {
			b1, b2 := suf.NewBuilder(), suf.NewBuilder()
			f1, err := suf.Parse(it.Text, b1)
			if err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
			f2, _ := suf.Parse(it.Text, b2)

			want := core.DecideCtx(context.Background(), f1, b1, decideOpts)
			var acc layerTotals
			got, err := decideLayers(context.Background(), f2, b2, obs.NewRecorder(), &acc)
			if err != nil {
				t.Fatalf("%s: layer driver: %v", it.Name, err)
			}
			if verdict(got.Status) != want.Status.String() {
				t.Errorf("%s: layer driver says %s, DecideCtx %s", it.Name, verdict(got.Status), want.Status)
			}
			if got.CNFVars != want.Stats.SAT.Vars || got.CNFClauses != want.Stats.CNFClauses {
				t.Errorf("%s: layer driver CNF %d vars / %d clauses, DecideCtx %d / %d",
					it.Name, got.CNFVars, got.CNFClauses, want.Stats.SAT.Vars, want.Stats.CNFClauses)
			}
			if sd := int64(want.Stats.SDClasses); acc.SDClasses != sd {
				t.Errorf("%s: layer driver routes %d classes to SD, DecideCtx %d", it.Name, acc.SDClasses, sd)
			}
		}
	}
}
