package router

import "sufsat/internal/server"

// Fingerprint parses the request formula and returns its canonical
// alpha-renaming-invariant fingerprint (see sufsat.Formula.Fingerprint) —
// the ring key. Hashing the canonical DAG (not the raw source) means
// whitespace, equivalent spellings, commutative argument orders and even
// consistently renamed copies of the same formula all land on the same
// backend, which is what gives a per-backend verdict cache its hit rate.
// Parsing at the router also rejects malformed input before it costs a
// backend anything.
//
// The router forwards the computed fingerprint to the chosen backend in the
// request body's fingerprint field so a backend running with
// -trust-fingerprint can skip recanonicalizing (one canonicalization per
// request across the fleet).
//
// The fingerprinted formula is server.DecidedFormula, the one the backend
// hands to the solver (an SMT2 request is negated), so the ring key equals
// the key a backend computes for its own cache.
func Fingerprint(formula string, smt2 bool) (string, error) {
	f, err := server.DecidedFormula(formula, smt2)
	if err != nil {
		return "", err
	}
	return f.Fingerprint(), nil
}
