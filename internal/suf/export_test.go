package suf

// Mirror exposes the fingerprint tests' commutative-operand swapper to the
// tests that run over the bench suite, which live in package suf_test
// because the suite imports suf.
var Mirror = mirror
