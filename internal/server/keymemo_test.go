package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sufsat/internal/bench"
	"sufsat/internal/router"
	"sufsat/internal/server"
)

// suiteText returns the printed form of a bench suite formula.
func suiteText(t testing.TB, name string) string {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("%s missing from the suite", name)
	}
	f, _ := bm.Build()
	return f.String()
}

// handlerPoster returns a function that POSTs body to h's /decide in
// process, with no network in between, and the server behind h.
func handlerPoster(t testing.TB, cfg server.Config) (*server.Server, func(body []byte) *httptest.ResponseRecorder) {
	t.Helper()
	s := server.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	h := s.Handler()
	return s, func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/decide", bytes.NewReader(body)))
		return w
	}
}

// requestBody encodes req as the client puts it on the wire: without HTML
// escaping, so a formula's < and > are sent as themselves.
func requestBody(t testing.TB, req *server.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepeatHitSkipsParse pins the byte-identical repeat path: once a text
// has been decided, its repeat is keyed from the memo and answered from the
// verdict cache without a parse, so its allocations do not grow with the
// formula's DAG (a parse allocates about once per node; lsu-4 has ~2,000
// nodes). Its bytes are pinned too: the body is read into one buffer of its
// Content-Length, and an unescaped formula is copied out of it once.
func TestRepeatHitSkipsParse(t *testing.T) {
	_, post := handlerPoster(t, server.Config{Workers: 1, MaxQueue: 8})
	allocs := map[string]float64{}
	bytesPer := map[string]float64{}
	for _, name := range []string{"cvt-1", "lsu-4"} {
		body := requestBody(t, &server.Request{Formula: suiteText(t, name)})
		if w := post(body); w.Code != http.StatusOK {
			t.Fatalf("%s: first decide HTTP %d: %s", name, w.Code, w.Body.String())
		}
		if w := post(body); !bytes.Contains(w.Body.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("%s: repeat not served from the cache: %s", name, w.Body.String())
		}
		allocs[name] = testing.AllocsPerRun(20, func() { post(body) })
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			post(body)
		}
		runtime.ReadMemStats(&after)
		bytesPer[name] = float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	t.Logf("repeat hit allocations: cvt-1 %.0f, lsu-4 %.0f; bytes: cvt-1 %.0f, lsu-4 %.0f",
		allocs["cvt-1"], allocs["lsu-4"], bytesPer["cvt-1"], bytesPer["lsu-4"])
	if allocs["lsu-4"] > 60 || allocs["lsu-4"] > allocs["cvt-1"]+10 {
		t.Errorf("repeat hit allocations: lsu-4 %.0f (limit 60), cvt-1 %.0f (lsu-4 limit cvt-1+10)",
			allocs["lsu-4"], allocs["cvt-1"])
	}
	// About 26 KB; reading the body by io.ReadAll, whose buffer grows from
	// 512 bytes, brings it to about 50 KB.
	if bytesPer["lsu-4"] > 32<<10 {
		t.Errorf("a repeat hit of lsu-4 allocates %.0f bytes, want <= %d", bytesPer["lsu-4"], 32<<10)
	}
}

// TestKeyMemoModelRepeat: a want_model repeat of an invalid formula's exact
// text is a memo hit served from the cache with its model; an alpha-renamed
// want_model request still parses and re-solves for a model in its own
// symbol names.
func TestKeyMemoModelRepeat(t *testing.T) {
	s, c := newCacheTestServer(t, server.Config{Workers: 2, MaxQueue: 8})
	ctx := context.Background()

	orig := "(=> (= (f a) (f b)) (= a b))" // invalid: no injectivity
	r1, err := c.Decide(ctx, &server.Request{Formula: orig, WantModel: true})
	if err != nil || r1.Status != "invalid" || r1.Cached || len(r1.ModelConsts) == 0 {
		t.Fatalf("first: %v / %+v", err, r1)
	}
	r2, err := c.Decide(ctx, &server.Request{Formula: orig, WantModel: true})
	if err != nil || r2.Status != "invalid" || !r2.Cached || r2.SolveMS != 0 {
		t.Fatalf("identical repeat: %v / %+v, want invalid, cached, no solve", err, r2)
	}
	if fmt.Sprint(r2.ModelConsts) != fmt.Sprint(r1.ModelConsts) {
		t.Fatalf("identical repeat model %v, want %v", r2.ModelConsts, r1.ModelConsts)
	}
	if n := s.Keys().Len(); n != 1 {
		t.Fatalf("memo holds %d entries after one text, want 1", n)
	}

	renamed := "(=> (= (h p) (h q)) (= p q))"
	r3, err := c.Decide(ctx, &server.Request{Formula: renamed, WantModel: true})
	if err != nil || r3.Status != "invalid" || r3.Cached {
		t.Fatalf("renamed: %v / %+v, want invalid and re-solved", err, r3)
	}
	if _, ok := r3.ModelConsts["p"]; !ok {
		t.Fatalf("renamed model uses wrong symbol names: %v", r3.ModelConsts)
	}
	if r3.Fingerprint != r1.Fingerprint {
		t.Fatalf("alpha-variant keyed %s, original %s", r3.Fingerprint, r1.Fingerprint)
	}
}

// TestKeyMemoSyntaxes: the same bytes read as SUF and as an SMT-LIB script
// are two questions with two memo entries, each equal to router.Fingerprint
// for its syntax.
func TestKeyMemoSyntaxes(t *testing.T) {
	m := server.NewKeyMemo()
	const text = "(set-logic QF_UF)" // a predicate application; an empty script
	var keys [2]string
	for pass := 0; pass < 2; pass++ {
		for i, smt2 := range []bool{false, true} {
			fp, err := m.Fingerprint(text, smt2)
			if err != nil {
				t.Fatalf("smt2=%v: %v", smt2, err)
			}
			want, err := router.Fingerprint(text, smt2)
			if err != nil || fp != want {
				t.Fatalf("smt2=%v pass %d: memo key %s, router.Fingerprint %s (err %v)", smt2, pass, fp, want, err)
			}
			keys[i] = fp
		}
	}
	if keys[0] == keys[1] {
		t.Fatalf("SUF and SMT2 readings share the key %s", keys[0])
	}
	if n := m.Len(); n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
}

// TestKeyMemoRejectsMalformed: a malformed text is answered 400 every time
// it is sent and never enters the memo.
func TestKeyMemoRejectsMalformed(t *testing.T) {
	s, post := handlerPoster(t, server.Config{Workers: 1, MaxQueue: 8})
	for _, req := range []*server.Request{
		{Formula: "(and p"},
		{Formula: "(assert)", SMT2: true},
	} {
		body := requestBody(t, req)
		for i := 0; i < 2; i++ {
			if w := post(body); w.Code != http.StatusBadRequest {
				t.Fatalf("%q send %d: HTTP %d, want 400", req.Formula, i, w.Code)
			}
		}
	}
	if n := s.Keys().Len(); n != 0 {
		t.Fatalf("memo holds %d entries after malformed requests only", n)
	}
}

// TestKeyMemoBound: after three times its bound of distinct texts the memo
// holds no more than the bound, and the latest text is still a hit.
func TestKeyMemoBound(t *testing.T) {
	m := server.NewKeyMemo()
	for i := 0; i < 3*server.KeyMemoBound; i++ {
		if _, err := m.Fingerprint(fmt.Sprintf("(p x%d)", i), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.Len(); n > server.KeyMemoBound {
		t.Fatalf("memo holds %d entries, bound %d", n, server.KeyMemoBound)
	}
	last := fmt.Sprintf("(p x%d)", 3*server.KeyMemoBound-1)
	if a := testing.AllocsPerRun(5, func() { m.Fingerprint(last, false) }); a > 5 { //nolint:errcheck
		t.Fatalf("latest text costs %.0f allocations, want a memo hit", a)
	}
}

// TestKeyMemoConcurrent: many goroutines key shared texts while each also
// keys enough texts of its own to turn the generations over, so lookups,
// promotions, inserts and rotations race; every shared key equals
// router.Fingerprint, malformed texts stay errors and the bound holds.
func TestKeyMemoConcurrent(t *testing.T) {
	m := server.NewKeyMemo()
	type text struct {
		formula string
		smt2    bool
		fp      string
	}
	var texts []text
	for i := 0; i < 40; i++ {
		tx := text{formula: fmt.Sprintf("(=> (= x%d y) (= (f x%d) (f y)))", i, i)}
		if i%4 == 0 {
			tx = text{formula: fmt.Sprintf("(declare-const x%d Int)(assert (< x%d %d))", i, i, i), smt2: true}
		}
		fp, err := router.Fingerprint(tx.formula, tx.smt2)
		if err != nil {
			t.Fatal(err)
		}
		tx.fp = fp
		texts = append(texts, tx)
	}
	const goroutines, own = 8, server.KeyMemoBound / 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < own; i++ {
				tx := texts[(g*7+i*3)%len(texts)]
				if fp, err := m.Fingerprint(tx.formula, tx.smt2); err != nil || fp != tx.fp {
					t.Errorf("%q: key %s (err %v), want %s", tx.formula, fp, err, tx.fp)
					return
				}
				if _, err := m.Fingerprint(fmt.Sprintf("(p g%d_%d)", g, i), false); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					if _, err := m.Fingerprint("(or "+strings.Repeat("(", g), false); err == nil {
						t.Errorf("malformed text keyed")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > server.KeyMemoBound {
		t.Fatalf("memo holds %d entries, bound %d", n, server.KeyMemoBound)
	}
}

// BenchmarkCacheHit drives the in-process handler with cache hits of a suite
// formula: a byte-identical repeat (a key-memo hit, no parse) and an
// alpha-renamed repeat, a spelling never sent before (parsed and
// fingerprinted, then a verdict-cache hit).
func BenchmarkCacheHit(b *testing.B) {
	text := suiteText(b, "lsu-4")
	for _, tc := range []struct {
		name    string
		renamed bool
	}{{"identical", false}, {"renamed", true}} {
		b.Run(tc.name, func(b *testing.B) {
			_, post := handlerPoster(b, server.Config{Workers: 1, MaxQueue: 8})
			body := requestBody(b, &server.Request{Formula: text})
			if w := post(body); w.Code != http.StatusOK {
				b.Fatalf("warm: HTTP %d", w.Code)
			}
			bodies := [][]byte{body}
			if tc.renamed {
				bodies = make([][]byte, b.N)
				for i := range bodies {
					bodies[i] = requestBody(b, &server.Request{Formula: bench.AlphaRename(text, i)})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w := post(bodies[i%len(bodies)]); !bytes.Contains(w.Body.Bytes(), []byte(`"cached":true`)) {
					b.Fatalf("not a cache hit: %s", w.Body.String())
				}
			}
		})
	}
}
