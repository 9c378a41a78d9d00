package suf

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a single SUF formula in s-expression syntax into b.
//
// Grammar (case-sensitive keywords):
//
//	bool ::= true | false | SYMBOL | (SYMBOL int+)
//	       | (not bool) | (and bool+) | (or bool+) | (=> bool bool)
//	       | (iff bool bool) | (ite bool bool bool)
//	       | (= int int) | (< int int) | (<= int int) | (> int int) | (>= int int)
//	int  ::= SYMBOL | (SYMBOL int+) | (succ int) | (pred int)
//	       | (+ int NUM) | (- int NUM) | (ite bool int int)
//
// Line comments start with ';'. Symbols appearing in Boolean positions are
// uninterpreted predicates; in integer positions, uninterpreted functions.
// A SYMBOL may be written |quoted| (SMT-LIB style) to carry spaces,
// metacharacters, or names that collide with keywords and numerals; the
// printer quotes such names automatically, so formulas always round-trip.
//
// The parser reads the source in one pass, building each node as its list
// closes; tokens and symbol names are substrings of src.
func Parse(src string, b *Builder) (*BoolExpr, error) {
	b.reserve(len(src) / bytesPerNode)
	p := &parser{src: src, b: b}
	f, err := p.boolean()
	if err != nil {
		return nil, err
	}
	if p.skip(); p.pos < len(src) {
		return nil, fmt.Errorf("suf: trailing input at offset %d", p.pos)
	}
	return f, nil
}

// bytesPerNode is the source bytes per map entry that Parse assumes when it
// presizes a fresh builder's two hash-consing maps. The printed suite
// formulas spend about 10 bytes per node, a quarter to a third of the nodes
// integer ones, so each map ends within one doubling of its presized size.
const bytesPerNode = 24

// MaxNumeral caps the sum of |k| over all the offset numerals k of one
// formula accepted by the parser (the SMT-LIB translator applies the same
// cap to one script). Offsets are represented as succ/pred chains (one node
// per unit), so a cap on each numeral alone would still let a few bytes of
// input per numeral allocate gigabytes; 2^16 is far beyond the total offset
// of any published difference-logic benchmark.
const MaxNumeral = 1 << 16

// MustParse is Parse, panicking on error. It is intended for tests and
// examples with literal inputs only; every path that handles untrusted or
// user-supplied syntax (cmd/sufdecide, the server's /decide endpoint, the
// smtlib translator) goes through Parse and reports the error instead.
func MustParse(src string, b *Builder) *BoolExpr {
	f, err := Parse(src, b)
	if err != nil {
		panic(err)
	}
	return f
}

// isSpace reports whether byte c is white space to the tokenizer:
// unicode.IsSpace of c read as a rune. Tokens are scanned byte-wise, so the
// continuation byte 0x85 or 0xA0 of a multibyte rune separates tokens too.
func isSpace(c byte) bool {
	switch c {
	case '\t', '\n', '\v', '\f', '\r', ' ', 0x85, 0xA0:
		return true
	}
	return false
}

// isDelim reports whether byte c ends an unquoted atom.
func isDelim(c byte) bool {
	return c == '(' || c == ')' || c == ';' || c == '|' || isSpace(c)
}

type parser struct {
	src      string
	pos      int
	b        *Builder
	args     []*IntExpr // operands of the applications being read, innermost last
	numerals int        // sum of |k| over the offset numerals read so far
}

// skip advances past white space and line comments.
func (p *parser) skip() {
	for p.pos < len(p.src) {
		switch c := p.src[p.pos]; {
		case c == ';':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		case isSpace(c):
			p.pos++
		default:
			return
		}
	}
}

// token reads the next token: "(" or ")", an atom (a |quoted| atom keeps
// its bars), or "" at the end of input. Atoms are never empty.
func (p *parser) token() (string, error) {
	p.skip()
	start := p.pos
	if start == len(p.src) {
		return "", nil
	}
	switch p.src[start] {
	case '(', ')':
		p.pos++
	case '|':
		end := strings.IndexByte(p.src[start+1:], '|')
		if end < 0 {
			return "", fmt.Errorf("suf: unterminated |symbol|")
		}
		p.pos = start + end + 2
	default:
		for p.pos < len(p.src) && !isDelim(p.src[p.pos]) {
			p.pos++
		}
	}
	return p.src[start:p.pos], nil
}

// closed consumes the ')' that ends the current list and reports whether it
// was next.
func (p *parser) closed() (bool, error) {
	p.skip()
	if p.pos == len(p.src) {
		return false, fmt.Errorf("suf: missing ')'")
	}
	if p.src[p.pos] == ')' {
		p.pos++
		return true, nil
	}
	return false, nil
}

// end consumes the ')' after the n operands of op.
func (p *parser) end(op string, n int) error {
	done, err := p.closed()
	if err == nil && !done {
		err = fmt.Errorf("suf: %s takes %d argument(s), got more", op, n)
	}
	return err
}

// head reads the operator of a list whose '(' has been consumed.
func (p *parser) head(position string) (string, error) {
	tok, err := p.token()
	switch {
	case err != nil:
		return "", err
	case tok == "":
		return "", fmt.Errorf("suf: missing ')'")
	case tok == ")":
		return "", fmt.Errorf("suf: empty list in %s position", position)
	case tok == "(":
		return "", fmt.Errorf("suf: operator position must be a symbol")
	}
	return tok, nil
}

// atom interprets tok, read in an operand position, as a symbol name.
func atom(tok string) (string, error) {
	switch tok {
	case "":
		return "", fmt.Errorf("suf: unexpected end of input")
	case ")":
		return "", fmt.Errorf("suf: unexpected ')'")
	}
	return symName(tok)
}

// app reads the integer operands of an application of symbol atom op up to
// its ')' and builds it with mk. Operands collect on p.args, which nested
// applications share; mk copies them only when it makes a new node.
func app[E any](p *parser, op string, mk func(string, ...*IntExpr) E) (e E, err error) {
	name, err := symName(op)
	if err != nil {
		return e, err
	}
	base := len(p.args)
	for {
		done, err := p.closed()
		if err != nil {
			return e, err
		}
		if done {
			break
		}
		t, err := p.integer()
		if err != nil {
			return e, err
		}
		p.args = append(p.args, t)
	}
	e = mk(name, p.args[base:]...)
	p.args = p.args[:base]
	return e, nil
}

// operands reads the n (at most three) operands of op with read, and the
// ')' after them.
func operands[E any](p *parser, op string, n int, read func() (E, error)) (xs [3]E, err error) {
	for i := range n {
		if xs[i], err = read(); err != nil {
			return xs, err
		}
	}
	return xs, p.end(op, n)
}

func (p *parser) boolean() (*BoolExpr, error) {
	tok, err := p.token()
	if err != nil {
		return nil, err
	}
	switch tok {
	case "(":
		return p.boolList()
	case "true":
		return p.b.True(), nil
	case "false":
		return p.b.False(), nil
	}
	name, err := atom(tok)
	if err != nil {
		return nil, err
	}
	return p.b.BoolSym(name), nil
}

func (p *parser) boolList() (*BoolExpr, error) {
	b := p.b
	op, err := p.head("Boolean")
	if err != nil {
		return nil, err
	}
	switch op {
	case "and", "or":
		out := b.Const(op == "and")
		for {
			done, err := p.closed()
			if err != nil {
				return nil, err
			}
			if done {
				return out, nil
			}
			x, err := p.boolean()
			if err != nil {
				return nil, err
			}
			if op == "and" {
				out = b.And(out, x)
			} else {
				out = b.Or(out, x)
			}
		}
	case "not":
		xs, err := operands(p, op, 1, p.boolean)
		if err != nil {
			return nil, err
		}
		return b.Not(xs[0]), nil
	case "=>", "iff":
		xs, err := operands(p, op, 2, p.boolean)
		if err != nil {
			return nil, err
		}
		if op == "=>" {
			return b.Implies(xs[0], xs[1]), nil
		}
		return b.Iff(xs[0], xs[1]), nil
	case "ite":
		xs, err := operands(p, op, 3, p.boolean)
		if err != nil {
			return nil, err
		}
		c, x, y := xs[0], xs[1], xs[2]
		return b.Or(b.And(c, x), b.And(b.Not(c), y)), nil
	case "=", "<", "<=", ">", ">=":
		ts, err := operands(p, op, 2, p.integer)
		if err != nil {
			return nil, err
		}
		switch op {
		case "=":
			return b.Eq(ts[0], ts[1]), nil
		case "<":
			return b.Lt(ts[0], ts[1]), nil
		case "<=":
			return b.Le(ts[0], ts[1]), nil
		case ">":
			return b.Gt(ts[0], ts[1]), nil
		}
		return b.Ge(ts[0], ts[1]), nil
	}
	return app(p, op, b.PredApp)
}

func (p *parser) integer() (*IntExpr, error) {
	tok, err := p.token()
	if err != nil {
		return nil, err
	}
	if tok == "(" {
		return p.intList()
	}
	name, err := atom(tok)
	if err != nil {
		return nil, err
	}
	return p.b.Sym(name), nil
}

func (p *parser) intList() (*IntExpr, error) {
	b := p.b
	op, err := p.head("integer")
	if err != nil {
		return nil, err
	}
	switch op {
	case "succ", "pred":
		ts, err := operands(p, op, 1, p.integer)
		if err != nil {
			return nil, err
		}
		if op == "succ" {
			return b.Succ(ts[0]), nil
		}
		return b.Pred(ts[0]), nil
	case "+", "-":
		t, err := p.integer()
		if err != nil {
			return nil, err
		}
		num, err := p.token()
		if err != nil {
			return nil, err
		}
		if num == "" || num == "(" || num == ")" {
			return nil, fmt.Errorf("suf: %s takes (term numeral)", op)
		}
		k, err := strconv.Atoi(num)
		if err != nil {
			return nil, fmt.Errorf("suf: bad numeral %q: %v", num, err)
		}
		if left := MaxNumeral - p.numerals; k > left || k < -left {
			return nil, fmt.Errorf("suf: offset numerals sum to more than the supported total magnitude %d", MaxNumeral)
		}
		p.numerals += max(k, -k)
		if err := p.end(op, 2); err != nil {
			return nil, err
		}
		if op == "-" {
			k = -k
		}
		return b.Offset(t, k), nil
	case "ite":
		c, err := p.boolean()
		if err != nil {
			return nil, err
		}
		ts, err := operands(p, op, 2, p.integer)
		if err != nil {
			return nil, err
		}
		return b.Ite(c, ts[0], ts[1]), nil
	}
	return app(p, op, b.Fn)
}

var reserved = map[string]bool{
	"and": true, "or": true, "not": true, "=>": true, "iff": true,
	"ite": true, "succ": true, "pred": true, "+": true, "-": true,
	"=": true, "<": true, "<=": true, ">": true, ">=": true,
	"true": true, "false": true,
}

// symName interprets an atom as a symbol name. |bars| quote any name
// (including keywords, numerals and names with spaces — the printer emits
// them via QuoteSym); unquoted atoms must pass validSymbol.
func symName(atom string) (string, error) {
	if len(atom) >= 2 && atom[0] == '|' && atom[len(atom)-1] == '|' {
		name := atom[1 : len(atom)-1]
		if name == "" {
			return "", fmt.Errorf("suf: empty quoted symbol ||")
		}
		return name, nil
	}
	if err := validSymbol(atom); err != nil {
		return "", err
	}
	return atom, nil
}

// validSymbol rejects atoms that cannot name uninterpreted symbols:
// keywords and numerals (SUF has no integer literals; offsets are written
// (+ t k)).
func validSymbol(s string) error {
	if s == "" {
		return fmt.Errorf("suf: empty symbol")
	}
	if reserved[s] {
		return fmt.Errorf("suf: keyword %q used as a symbol", s)
	}
	if isNumeral(s) {
		return fmt.Errorf("suf: numeral %q used as a symbol: SUF has no integer literals", s)
	}
	return nil
}

// isNumeral reports whether strconv.Atoi accepts s — an optional sign, then
// decimal digits whose value fits an int — without allocating the error Atoi
// returns for every other string. An out-of-range digit string is therefore
// not a numeral.
func isNumeral(s string) bool {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return false
	}
	limit := uint64(1)<<(strconv.IntSize-1) - 1
	if neg {
		limit++
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := uint64(s[i] - '0')
		if d > 9 || v > (limit-d)/10 {
			return false
		}
		v = v*10 + d
	}
	return true
}
