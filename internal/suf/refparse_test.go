package suf_test

// The reference parser: a two-pass reader of the same grammar that
// tokenizes the whole source, builds an s-expression tree, then walks it
// into a Builder. It is the oracle of TestParseMatchesReference and
// FuzzParseMatchesReference.

import (
	"fmt"
	"strconv"
	"unicode"

	"sufsat/internal/suf"
)

// refParse reads a single SUF formula in s-expression syntax into b.
func refParse(src string, b *suf.Builder) (*suf.BoolExpr, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, b: b}
	sx, err := p.sexp()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("suf: trailing input at token %d: %q", p.pos, p.toks[p.pos])
	}
	return p.boolOf(sx)
}

func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '|':
			j := i + 1
			for j < len(src) && src[j] != '|' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("suf: unterminated |symbol|")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(src) && src[j] != '(' && src[j] != ')' && src[j] != ';' &&
				src[j] != '|' && !unicode.IsSpace(rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

// sexp is either a string atom or a list. isList disambiguates the empty
// list () from an atom (both would otherwise have a nil list slice).
type sexpNode struct {
	atom   string
	list   []sexpNode
	isList bool
}

type parser struct {
	toks     []string
	pos      int
	b        *suf.Builder
	numerals int
}

func (p *parser) sexp() (sexpNode, error) {
	if p.pos >= len(p.toks) {
		return sexpNode{}, fmt.Errorf("suf: unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	switch t {
	case "(":
		var list []sexpNode
		for {
			if p.pos >= len(p.toks) {
				return sexpNode{}, fmt.Errorf("suf: missing ')'")
			}
			if p.toks[p.pos] == ")" {
				p.pos++
				return sexpNode{list: list, isList: true}, nil
			}
			child, err := p.sexp()
			if err != nil {
				return sexpNode{}, err
			}
			list = append(list, child)
		}
	case ")":
		return sexpNode{}, fmt.Errorf("suf: unexpected ')'")
	default:
		return sexpNode{atom: t}, nil
	}
}

func (p *parser) boolOf(sx sexpNode) (*suf.BoolExpr, error) {
	b := p.b
	if !sx.isList {
		switch sx.atom {
		case "true":
			return b.True(), nil
		case "false":
			return b.False(), nil
		case "":
			return nil, fmt.Errorf("suf: empty boolean atom")
		default:
			name, err := symName(sx.atom)
			if err != nil {
				return nil, err
			}
			return b.BoolSym(name), nil
		}
	}
	if len(sx.list) == 0 {
		return nil, fmt.Errorf("suf: empty list in Boolean position")
	}
	head := sx.list[0]
	if head.isList {
		return nil, fmt.Errorf("suf: operator position must be a symbol")
	}
	args := sx.list[1:]
	switch head.atom {
	case "not":
		if len(args) != 1 {
			return nil, fmt.Errorf("suf: not takes 1 argument, got %d", len(args))
		}
		x, err := p.boolOf(args[0])
		if err != nil {
			return nil, err
		}
		return b.Not(x), nil
	case "and", "or":
		out := b.True()
		if head.atom == "or" {
			out = b.False()
		}
		for _, a := range args {
			x, err := p.boolOf(a)
			if err != nil {
				return nil, err
			}
			if head.atom == "and" {
				out = b.And(out, x)
			} else {
				out = b.Or(out, x)
			}
		}
		return out, nil
	case "=>", "iff":
		if len(args) != 2 {
			return nil, fmt.Errorf("suf: %s takes 2 arguments, got %d", head.atom, len(args))
		}
		x, err := p.boolOf(args[0])
		if err != nil {
			return nil, err
		}
		y, err := p.boolOf(args[1])
		if err != nil {
			return nil, err
		}
		if head.atom == "=>" {
			return b.Implies(x, y), nil
		}
		return b.Iff(x, y), nil
	case "ite":
		if len(args) != 3 {
			return nil, fmt.Errorf("suf: ite takes 3 arguments, got %d", len(args))
		}
		c, err := p.boolOf(args[0])
		if err != nil {
			return nil, err
		}
		x, err := p.boolOf(args[1])
		if err != nil {
			return nil, err
		}
		y, err := p.boolOf(args[2])
		if err != nil {
			return nil, err
		}
		return b.Or(b.And(c, x), b.And(b.Not(c), y)), nil
	case "=", "<", "<=", ">", ">=":
		if len(args) != 2 {
			return nil, fmt.Errorf("suf: %s takes 2 arguments, got %d", head.atom, len(args))
		}
		t1, err := p.intOf(args[0])
		if err != nil {
			return nil, err
		}
		t2, err := p.intOf(args[1])
		if err != nil {
			return nil, err
		}
		switch head.atom {
		case "=":
			return b.Eq(t1, t2), nil
		case "<":
			return b.Lt(t1, t2), nil
		case "<=":
			return b.Le(t1, t2), nil
		case ">":
			return b.Gt(t1, t2), nil
		default:
			return b.Ge(t1, t2), nil
		}
	default:
		name, err := symName(head.atom)
		if err != nil {
			return nil, err
		}
		ias := make([]*suf.IntExpr, len(args))
		for i, a := range args {
			t, err := p.intOf(a)
			if err != nil {
				return nil, err
			}
			ias[i] = t
		}
		return b.PredApp(name, ias...), nil
	}
}

func (p *parser) intOf(sx sexpNode) (*suf.IntExpr, error) {
	b := p.b
	if !sx.isList {
		if sx.atom == "" {
			return nil, fmt.Errorf("suf: empty integer atom")
		}
		name, err := symName(sx.atom)
		if err != nil {
			return nil, err
		}
		return b.Sym(name), nil
	}
	if len(sx.list) == 0 {
		return nil, fmt.Errorf("suf: empty list in integer position")
	}
	head := sx.list[0]
	if head.isList {
		return nil, fmt.Errorf("suf: operator position must be a symbol")
	}
	args := sx.list[1:]
	switch head.atom {
	case "succ", "pred":
		if len(args) != 1 {
			return nil, fmt.Errorf("suf: %s takes 1 argument, got %d", head.atom, len(args))
		}
		t, err := p.intOf(args[0])
		if err != nil {
			return nil, err
		}
		if head.atom == "succ" {
			return b.Succ(t), nil
		}
		return b.Pred(t), nil
	case "+", "-":
		if len(args) != 2 || args[1].isList {
			return nil, fmt.Errorf("suf: %s takes (term numeral)", head.atom)
		}
		k, err := strconv.Atoi(args[1].atom)
		if err != nil {
			return nil, fmt.Errorf("suf: bad numeral %q: %v", args[1].atom, err)
		}
		if left := suf.MaxNumeral - p.numerals; k > left || k < -left {
			return nil, fmt.Errorf("suf: offset numerals sum to more than the supported total magnitude %d", suf.MaxNumeral)
		}
		p.numerals += max(k, -k)
		t, err := p.intOf(args[0])
		if err != nil {
			return nil, err
		}
		if head.atom == "-" {
			k = -k
		}
		return b.Offset(t, k), nil
	case "ite":
		if len(args) != 3 {
			return nil, fmt.Errorf("suf: ite takes 3 arguments, got %d", len(args))
		}
		c, err := p.boolOf(args[0])
		if err != nil {
			return nil, err
		}
		t1, err := p.intOf(args[1])
		if err != nil {
			return nil, err
		}
		t2, err := p.intOf(args[2])
		if err != nil {
			return nil, err
		}
		return b.Ite(c, t1, t2), nil
	default:
		name, err := symName(head.atom)
		if err != nil {
			return nil, err
		}
		ias := make([]*suf.IntExpr, len(args))
		for i, a := range args {
			t, err := p.intOf(a)
			if err != nil {
				return nil, err
			}
			ias[i] = t
		}
		return b.Fn(name, ias...), nil
	}
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
	if _, err := strconv.Atoi(s); err == nil {
		return fmt.Errorf("suf: numeral %q used as a symbol: SUF has no integer literals", s)
	}
	return nil
}
