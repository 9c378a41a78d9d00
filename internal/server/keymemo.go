package server

import (
	"crypto/sha256"
	"sync"

	"sufsat"
)

// DecidedFormula parses a request's formula into a fresh builder and returns
// the formula the server decides: the input itself, or for an SMT2 request
// its negation, since a script is satisfiable iff the negation of its
// assertions is not valid. The fingerprint of this formula keys the verdict
// cache, and the router keys its ring with the same function, so the two
// keys are equal and a sat-check never shares an entry with a validity check
// of the same text.
func DecidedFormula(formula string, smt2 bool) (sufsat.Formula, error) {
	b := sufsat.NewBuilder()
	if !smt2 {
		return b.Parse(formula)
	}
	f, err := b.ParseSMTLIB(formula)
	if err != nil {
		return sufsat.Formula{}, err
	}
	// "invalid" then means satisfiable, and the model satisfies the
	// assertions.
	return f.Not(), nil
}

// memoGeneration is the entry count of one KeyMemo generation; the memo
// holds at most two generations.
const memoGeneration = DefaultCacheEntries

// memoKey is the SHA-256 of a request formula's syntax byte and exact bytes.
// A cryptographic hash makes a memo hit mean "the same bytes": no crafted
// text can inherit another text's fingerprint.
type memoKey [sha256.Size]byte

// keyOf hashes one syntax byte ('S' for SUF, '2' for SMT-LIB) followed by
// the formula bytes. The bytes pass through a fixed buffer, so the cost in
// allocations does not grow with the formula.
func keyOf(formula string, smt2 bool) memoKey {
	h := sha256.New()
	var buf [512]byte
	buf[0] = 'S'
	if smt2 {
		buf[0] = '2'
	}
	h.Write(buf[:1])
	for formula != "" {
		n := copy(buf[:], formula)
		h.Write(buf[:n])
		formula = formula[n:]
	}
	var k memoKey
	h.Sum(k[:0])
	return k
}

// KeyMemo maps the exact bytes of a request formula to the canonical
// fingerprint of its decided formula (DecidedFormula, then Fingerprint), so
// a byte-identical repeat is keyed without a parse. The router keys its ring
// through one and each server keys its verdict cache through another.
//
// An entry is added only after its bytes parsed and fingerprinted, so
// malformed bytes never enter, and a hit may skip the parser's checks: the
// same bytes passed them earlier in this process. The memo is bounded to two
// generations of memoGeneration entries, about 1 MB: when the current one
// fills it becomes the old one and the previous old one is dropped, and a
// hit in the old generation moves the entry into the current one. Safe for
// concurrent use.
type KeyMemo struct {
	mu       sync.Mutex
	cur, old map[memoKey]string
}

// NewKeyMemo returns an empty memo.
func NewKeyMemo() *KeyMemo {
	return &KeyMemo{cur: make(map[memoKey]string)}
}

// Fingerprint returns the canonical fingerprint of the decided formula of
// (formula, smt2): from the memo for bytes keyed before, otherwise by
// parsing and fingerprinting them and remembering the result.
func (m *KeyMemo) Fingerprint(formula string, smt2 bool) (string, error) {
	k := keyOf(formula, smt2)
	if fp, ok := m.get(k); ok {
		return fp, nil
	}
	f, err := DecidedFormula(formula, smt2)
	if err != nil {
		return "", err
	}
	fp := f.Fingerprint()
	m.put(k, fp)
	return fp, nil
}

// get returns the fingerprint memoized under k, promoting an old-generation
// hit into the current generation.
func (m *KeyMemo) get(k memoKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fp, ok := m.cur[k]; ok {
		return fp, true
	}
	fp, ok := m.old[k]
	if ok {
		delete(m.old, k)
		m.insert(k, fp)
	}
	return fp, ok
}

// put memoizes fp under k.
func (m *KeyMemo) put(k memoKey, fp string) {
	m.mu.Lock()
	m.insert(k, fp)
	m.mu.Unlock()
}

// insert adds k to the current generation, first retiring a full one.
// Caller holds mu.
func (m *KeyMemo) insert(k memoKey, fp string) {
	if _, ok := m.cur[k]; !ok && len(m.cur) >= memoGeneration {
		m.old, m.cur = m.cur, make(map[memoKey]string, memoGeneration)
	}
	m.cur[k] = fp
}
