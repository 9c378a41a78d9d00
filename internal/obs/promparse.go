package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Strict parser and validator for the Prometheus text exposition format
// (version 0.0.4) — the consumer side of metrics.go, shared by the suftop
// dashboard and the tracecheck artifact validator. It accepts exactly the
// envelope the registry emits: HELP/TYPE comment pairs, samples with sorted
// escaped labels, histogram buckets that are cumulative and +Inf-terminated.

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full sample name, suffixes included (x_bucket, x_sum, …).
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s PromSample) Label(k string) string { return s.Labels[k] }

// PromFamily is one metric family: its TYPE, HELP and samples in file order.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// PromScrape is one parsed exposition.
type PromScrape struct {
	Families []*PromFamily
	byName   map[string]*PromFamily
}

// Family returns the named family (nil when absent).
func (p *PromScrape) Family(name string) *PromFamily {
	if p == nil {
		return nil
	}
	return p.byName[name]
}

// samplesNamed resolves a sample name — a family name, or a histogram
// series like x_bucket/x_sum/x_count — to the family's samples bearing
// exactly that name.
func (p *PromScrape) samplesNamed(name string) []PromSample {
	f := p.Family(name)
	if f == nil {
		f = p.Family(baseName(name))
	}
	if f == nil {
		return nil
	}
	var out []PromSample
	for _, s := range f.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the value of the first sample with the given name (family
// name or histogram series name) whose labels include the given key/value
// pairs, and whether one matched.
func (p *PromScrape) Value(name string, labelKVs ...string) (float64, bool) {
	for _, s := range p.samplesNamed(name) {
		ok := true
		for i := 0; i+1 < len(labelKVs); i += 2 {
			if s.Labels[labelKVs[i]] != labelKVs[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample with the given name that matches the label pairs
// (counter families with one sample per label value aggregate this way).
func (p *PromScrape) Sum(name string, labelKVs ...string) float64 {
	total := 0.0
	for _, s := range p.samplesNamed(name) {
		ok := true
		for i := 0; i+1 < len(labelKVs); i += 2 {
			if s.Labels[labelKVs[i]] != labelKVs[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// baseName strips histogram sample suffixes so samples attach to their
// family.
func baseName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParsePrometheus reads one text exposition strictly: every line must be a
// well-formed HELP, TYPE or sample line; every sample must belong to a family
// announced by a preceding TYPE; histogram families must satisfy the bucket
// invariants (cumulative counts, +Inf bucket equal to _count). It returns the
// parsed scrape or the first violation.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	scrape := &PromScrape{byName: make(map[string]*PromFamily)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(scrape, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := scrape.byName[baseName(s.Name)]
		if fam == nil {
			fam = scrape.byName[s.Name]
		}
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, s.Name)
		}
		if fam.Type != "histogram" && s.Name != fam.Name {
			return nil, fmt.Errorf("line %d: sample %q does not match family %q", lineNo, s.Name, fam.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(scrape.Families) == 0 {
		return nil, fmt.Errorf("no metric families")
	}
	for _, f := range scrape.Families {
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return scrape, nil
}

// parseComment handles "# HELP name text" and "# TYPE name type".
func parseComment(scrape *PromScrape, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	kw, name := fields[1], fields[2]
	switch kw {
	case "HELP":
		if !validMetricName(name) {
			return fmt.Errorf("HELP for bad metric name %q", name)
		}
		if f := scrape.byName[name]; f != nil && f.Help != "" {
			return fmt.Errorf("duplicate HELP for %q", name)
		}
		f := scrape.byName[name]
		if f == nil {
			f = &PromFamily{Name: name}
			scrape.byName[name] = f
			scrape.Families = append(scrape.Families, f)
		}
		if len(fields) == 4 {
			f.Help = fields[3]
		} else {
			f.Help = " " // present but empty
		}
	case "TYPE":
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for bad metric name %q", name)
		}
		if len(fields) != 4 {
			return fmt.Errorf("TYPE line for %q names no type", name)
		}
		typ := fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %q", typ, name)
		}
		f := scrape.byName[name]
		if f == nil {
			f = &PromFamily{Name: name}
			scrape.byName[name] = f
			scrape.Families = append(scrape.Families, f)
		}
		if f.Type != "" {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		f.Type = typ
	default:
		return fmt.Errorf("unknown comment keyword %q", kw)
	}
	return nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("bad sample name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", s.Name, err)
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// Strict: no timestamps — the registry never emits them.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("sample %q carries extra fields %q", s.Name, rest)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil && rest == "+Inf" {
		v, err = math.Inf(1), nil
	}
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value %q", s.Name, rest)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at text[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(text string, out map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(text) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if text[i] == '}' {
			return i + 1, nil
		}
		j := strings.IndexByte(text[i:], '=')
		if j < 0 {
			return 0, fmt.Errorf("label with no '='")
		}
		key := text[i : i+j]
		if !validMetricName(key) {
			return 0, fmt.Errorf("bad label name %q", key)
		}
		i += j + 1
		if i >= len(text) || text[i] != '"' {
			return 0, fmt.Errorf("label %q value not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(text) {
				return 0, fmt.Errorf("label %q value unterminated", key)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, fmt.Errorf("label %q trailing backslash", key)
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %q bad escape \\%c", key, text[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		if i < len(text) && text[i] == ',' {
			i++
		}
	}
}

// validateFamily checks per-family invariants, most importantly the
// histogram contract: per label set, buckets cumulative and non-decreasing in
// le order, a +Inf bucket present and equal to _count, and a _sum sample.
func validateFamily(f *PromFamily) error {
	if f.Type == "" {
		return fmt.Errorf("family %q has samples but no TYPE", f.Name)
	}
	if f.Type != "histogram" {
		if len(f.Samples) == 0 {
			return fmt.Errorf("family %q has no samples", f.Name)
		}
		return nil
	}
	type hkey string // rendered non-le labels
	buckets := map[hkey][]PromSample{}
	sums := map[hkey]float64{}
	counts := map[hkey]float64{}
	keyOf := func(s PromSample) hkey {
		var parts []string
		for k, v := range s.Labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		return hkey(strings.Join(parts, ","))
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			buckets[keyOf(s)] = append(buckets[keyOf(s)], s)
		case f.Name + "_sum":
			sums[keyOf(s)] = s.Value
		case f.Name + "_count":
			counts[keyOf(s)] = s.Value
		default:
			return fmt.Errorf("histogram %q has stray sample %q", f.Name, s.Name)
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("histogram %q has no buckets", f.Name)
	}
	for key, bs := range buckets {
		prevLE := math.Inf(-1)
		prevCum := -1.0
		sawInf := false
		var last float64
		for _, b := range bs {
			leStr, ok := b.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %q bucket without le", f.Name)
			}
			// ParseFloat accepts "+Inf" itself, so the spelling check is on
			// the string: only the literal "+Inf" names the tail bucket.
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return fmt.Errorf("histogram %q bad le %q", f.Name, leStr)
			}
			if math.IsInf(le, 1) {
				if leStr != "+Inf" {
					return fmt.Errorf("histogram %q bad le %q", f.Name, leStr)
				}
				sawInf = true
			}
			if le <= prevLE {
				return fmt.Errorf("histogram %q buckets out of le order", f.Name)
			}
			if b.Value < prevCum {
				return fmt.Errorf("histogram %q buckets not cumulative", f.Name)
			}
			prevLE, prevCum, last = le, b.Value, b.Value
		}
		if !sawInf {
			return fmt.Errorf("histogram %q{%s} missing +Inf bucket", f.Name, key)
		}
		cnt, ok := counts[key]
		if !ok {
			return fmt.Errorf("histogram %q{%s} missing _count", f.Name, key)
		}
		if _, ok := sums[key]; !ok {
			return fmt.Errorf("histogram %q{%s} missing _sum", f.Name, key)
		}
		if cnt != last {
			return fmt.Errorf("histogram %q{%s} +Inf bucket %v != _count %v", f.Name, key, last, cnt)
		}
	}
	return nil
}

// HistQuantile estimates the q-quantile (0 < q < 1) of a histogram family's
// bucket samples with BucketQuantile. The buckets must be one label set's
// cumulative le-ordered series; pass the delta of two scrapes for a windowed
// quantile. Returns 0 when the histogram is empty.
func HistQuantile(q float64, buckets []PromSample) float64 {
	bounds := make([]float64, len(buckets))
	cum := make([]float64, len(buckets))
	for i, b := range buckets {
		le, err := strconv.ParseFloat(b.Labels["le"], 64)
		if err != nil {
			le = math.Inf(1)
		}
		bounds[i], cum[i] = le, b.Value
	}
	if v := BucketQuantile(q, bounds, cum); !math.IsNaN(v) {
		return v
	}
	return 0
}

// BucketQuantile estimates the q-quantile (0 < q < 1) of a histogram from its
// ascending bucket upper bounds and their cumulative counts, using linear
// interpolation within the landing bucket — the classic Prometheus
// histogram_quantile. A rank landing in the unbounded +Inf bucket returns the
// last finite bound. Returns NaN when the histogram holds no observations.
func BucketQuantile(q float64, bounds, cum []float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return math.NaN()
	}
	rank := q * cum[len(cum)-1]
	prevCum, prevLE := 0.0, 0.0
	for i, le := range bounds {
		if cum[i] >= rank {
			if math.IsInf(le, 1) {
				return prevLE
			}
			if cum[i] == prevCum {
				return le
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(cum[i]-prevCum)
		}
		prevCum, prevLE = cum[i], le
	}
	return prevLE
}
