package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"sufsat/internal/bench"
)

// item is one formula of a workload's population, rendered to the SUF
// s-expression syntax the service accepts. Every decision — in-process or
// served — parses this text, so both paths decide the same formula.
type item struct {
	Name   string
	Family string
	Valid  bool
	Text   string
}

// workload is one entry of the ledger. Paper workloads decide their
// population in-process; service workloads send it through a sufrouter in
// front of two sufserved processes.
type workload struct {
	Name string
	Why  string
	// Population returns the formulas, in a fixed order (seeds only shuffle).
	Population func() []item
	// Service workloads: the open-loop rate, and whether requests repeat a
	// pre-warmed working set instead of carrying never-seen formulas.
	//
	// Each rate is 40% of the lowest closed-loop capacity_rps measured for
	// its population on a 2-vCPU Xeon VM whose speed drifted by up to 2.5×
	// over an afternoon: fresh capacity ranged 21–52 rps (median ≈33),
	// repeat capacity 155–294 rps (median ≈200). At the rates first tried
	// (17–20 and 130 rps) queueing made geomean_ms and tail_ms spread by
	// 28–217% of their median between seeds.
	Service bool
	Rate    float64
	Repeat  bool
}

var workloads = []workload{
	{
		Name:       "paper-hybrid",
		Why:        "Fig. 4 population: 39 non-invariant suite formulas plus 6 invalid variants, decided in-process by HYBRID; SAT-side changes show here",
		Population: func() []item { return render(append(bench.NonInvariant(), bench.InvalidVariants()...)) },
	},
	{
		Name:       "paper-invariant",
		Why:        "Fig. 5 regime, ooo.inv-1..5: one large class makes transitivity and CNF the cost with zero conflicts; encoding changes show here, SAT changes do not",
		Population: func() []item { return render(bench.InvariantChecking()[:5]) },
	},
	{
		Name:       "service-fresh",
		Why:        "every request is a never-seen formula, so the fleet solves, queues and hedges and the verdict cache only misses and inserts",
		Population: serviceBases,
		Service:    true,
		Rate:       8,
	},
	{
		Name:       "service-repeat",
		Why:        "a pre-warmed working set, half of it alpha-renamed, so the cache answers and parse, fingerprint, HTTP and routing do the work",
		Population: serviceBases,
		Service:    true,
		Rate:       60,
		Repeat:     true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func render(bms []bench.Benchmark) []item {
	out := make([]item, len(bms))
	for i, bm := range bms {
		f, _ := bm.Build()
		out[i] = item{Name: bm.Name, Family: bm.Family, Valid: bm.Valid, Text: f.String()}
	}
	return out
}

// serviceFamilies are the non-invariant families; the service workloads draw
// sizes 1–4 of each, plus one invalid variant per family (every fifth formula).
var serviceFamilies = []string{"dlx", "lsu", "ccp", "elf", "cvt", "ooo.t"}

func serviceBases() []item {
	var bms []bench.Benchmark
	for _, fam := range serviceFamilies {
		for size := 1; size <= 4; size++ {
			bm, ok := bench.ByName(fmt.Sprintf("%s-%d", fam, size))
			if !ok {
				panic("perfledger: suite has no " + fam + " formula of size " + strconv.Itoa(size))
			}
			bms = append(bms, bm)
		}
	}
	return render(append(bms, bench.InvalidVariants()...))
}

// warmupSet indexes the first formula of each family in population order:
// the smallest of each, since the suite lists every family by growing size.
func warmupSet(pop []item) []int {
	seen := make(map[string]bool)
	var out []int
	for i, it := range pop {
		if !seen[it.Family] {
			seen[it.Family] = true
			out = append(out, i)
		}
	}
	return out
}

// shuffled returns a seeded permutation of pop.
func shuffled(rng *rand.Rand, pop []item) []item {
	out := make([]item, len(pop))
	for i, j := range rng.Perm(len(pop)) {
		out[i] = pop[j]
	}
	return out
}

// tagLinks is the length of the tag chain; its offsets spell the salt in
// base 8, so 8^tagLinks salts give distinct fingerprints.
const tagLinks = 5

// maxSalt bounds the salts tagged accepts.
const maxSalt = 1 << (3 * tagLinks)

// tagged returns text ∨ T, where T is a chain t0 < t1+d0 ∧ t1 < t2+d1 ∧ …
// over fresh symbols whose offsets d_i spell salt. T is falsifiable on its
// own and shares no symbol with the formula, so the verdict (and any
// counterexample, extended by a falsifying T assignment) is unchanged, while
// each salt gives the formula a fingerprint of its own: the chain is
// directed, so no renaming maps one offset sequence onto another.
//
// spelling names the chain's symbols. Spellings other than 0 are
// alpha-renamed: a different request body with the same canonical
// fingerprint, which a verdict cache must answer without handing it the
// model of another spelling.
func tagged(text string, salt, spelling int) string {
	if salt < 0 || salt >= maxSalt {
		panic(fmt.Sprintf("perfledger: tag salt %d out of range", salt))
	}
	sym := "tag_"
	if spelling != 0 {
		sym = "tag" + strconv.Itoa(spelling) + "_"
	}
	var sb strings.Builder
	sb.Grow(len(text) + 40*tagLinks)
	sb.WriteString("(or ")
	sb.WriteString(text)
	sb.WriteString(" (and")
	for i := 0; i < tagLinks; i++ {
		fmt.Fprintf(&sb, " (< %s%d (+ %s%d %d))", sym, i, sym, i+1, salt%8+1)
		salt /= 8
	}
	sb.WriteString("))")
	return sb.String()
}
