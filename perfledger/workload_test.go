package main

import (
	"testing"

	"sufsat/internal/suf"
)

func fingerprint(t *testing.T, text string) string {
	t.Helper()
	f, err := suf.Parse(text, suf.NewBuilder())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return suf.Fingerprint(f)
}

// TestTaggedSpellings checks the service requests' fingerprints: a salt gives
// a formula a fingerprint of its own, and a respelling keeps it while
// changing the body.
func TestTaggedSpellings(t *testing.T) {
	for _, it := range serviceBases() {
		base := fingerprint(t, tagged(it.Text, 5, 0))
		for _, spelling := range []int{1, 3, 4095} {
			text := tagged(it.Text, 5, spelling)
			if text == tagged(it.Text, 5, 0) {
				t.Fatalf("%s: spelling %d leaves the body unchanged", it.Name, spelling)
			}
			if fp := fingerprint(t, text); fp != base {
				t.Errorf("%s: spelling %d moves the fingerprint", it.Name, spelling)
			}
		}
		for _, salt := range []int{0, 6, 8, maxSalt - 1} {
			if fp := fingerprint(t, tagged(it.Text, salt, 0)); fp == base {
				t.Errorf("%s: salts %d and 5 share a fingerprint", it.Name, salt)
			}
		}
	}
}
