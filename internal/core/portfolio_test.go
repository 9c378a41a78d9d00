package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

import "sufsat/internal/suf"

func TestPortfolioCatalog(t *testing.T) {
	for _, fc := range catalog {
		b := suf.NewBuilder()
		f := suf.MustParse(fc.src, b)
		want := Invalid
		if fc.valid {
			want = Valid
		}
		res := DecidePortfolioCtx(context.Background(), f, b, Options{Timeout: 30 * time.Second})
		if res.Status != want {
			t.Errorf("%s: got %v, want %v", fc.name, res.Status, want)
		}
	}
}

func TestPortfolioAgreesWithHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for iter := 0; iter < 60; iter++ {
		b := suf.NewBuilder()
		f := randomSUF(rng, b, 3)
		rp := DecidePortfolioCtx(context.Background(), f, b, Options{Timeout: 30 * time.Second})
		rh := Decide(f, b, Options{})
		if rp.Status != rh.Status {
			t.Fatalf("iter %d: portfolio=%v hybrid=%v\nf = %v", iter, rp.Status, rh.Status, f)
		}
	}
}

func TestPortfolioSurvivesEIJBlowup(t *testing.T) {
	// A formula whose EIJ translation explodes: the portfolio must still
	// answer quickly through SD while EIJ gets cancelled.
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("v%d", i)), b.Offset(b.Sym(fmt.Sprintf("v%d", j)), i-j)),
				b.Lt(b.Sym(fmt.Sprintf("v%d", j)), b.Offset(b.Sym(fmt.Sprintf("v%d", i)), j-i))))
		}
	}
	g := b.Implies(f, b.True()) // trivially valid wrapper keeps structure
	_ = g
	// Valid formula: ¬(all-cycle) like the queue example, embedded in the
	// dense clique to make EIJ translation heavy.
	f = b.And(f, b.Not(b.And(b.Ge(b.Sym("v0"), b.Sym("v1")), b.And(b.Ge(b.Sym("v1"), b.Sym("v2")), b.Ge(b.Sym("v2"), b.Succ(b.Sym("v0")))))))
	start := time.Now()
	res := DecidePortfolioCtx(context.Background(), f, b, Options{Timeout: 60 * time.Second, MaxTransClauses: 1 << 30})
	if res.Status == Timeout {
		t.Fatalf("portfolio timed out: %v", res.Err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("portfolio took %v; SD should have answered quickly", time.Since(start))
	}
}

func TestPortfolioAllTimeout(t *testing.T) {
	// A formula large enough that every member hits a deadline check before
	// finishing (trivial formulas can legitimately finish inside any
	// deadline, since limits are only polled at conflict boundaries).
	b := suf.NewBuilder()
	f := b.True()
	for i := 0; i < 14; i++ {
		for j := i + 1; j < 14; j++ {
			f = b.And(f, b.Or(
				b.Lt(b.Sym(fmt.Sprintf("w%d", i)), b.Sym(fmt.Sprintf("w%d", j))),
				b.Lt(b.Sym(fmt.Sprintf("w%d", j)), b.Sym(fmt.Sprintf("w%d", i)))))
		}
	}
	res := DecidePortfolioCtx(context.Background(), f, b, Options{Timeout: time.Nanosecond})
	if res.Status != Timeout {
		t.Fatalf("got %v, want Timeout when every member times out", res.Status)
	}
}
