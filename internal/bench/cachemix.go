package bench

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Alpha-variant rendering for the cache-mix soak: a consistently renamed
// spelling of a formula is a different request body with the same canonical
// fingerprint, so it must hit the verdict cache (and must never be handed
// the original's model). The renamer works on the SUF surface syntax
// directly — identifiers are runs of non-delimiter bytes, keywords and
// numerals pass through — so it needs no Builder and keeps the workload
// generator allocation-light.

// sufReserved mirrors the parser's keyword set (internal/suf/parse.go);
// these atoms are structure, not symbols, and must survive renaming.
var sufReserved = map[string]bool{
	"and": true, "or": true, "not": true, "=>": true, "iff": true,
	"ite": true, "succ": true, "pred": true, "+": true, "-": true,
	"=": true, "<": true, "<=": true, ">": true, ">=": true,
	"true": true, "false": true,
}

// AlphaRename rewrites every symbol in the rendered SUF formula to a fresh
// salted name (injectively, so distinct symbols stay distinct), producing an
// alpha-equivalent spelling with an identical canonical fingerprint.
func AlphaRename(formula string, salt int) string {
	var out strings.Builder
	out.Grow(len(formula) + len(formula)/2)
	i := 0
	for i < len(formula) {
		c := formula[i]
		switch {
		case c == '(' || c == ')' || unicode.IsSpace(rune(c)):
			out.WriteByte(c)
			i++
		case c == '|': // quoted symbol: rename the quoted name as a unit
			j := i + 1
			for j < len(formula) && formula[j] != '|' {
				j++
			}
			fmt.Fprintf(&out, "|%s_s%d|", formula[i+1:j], salt)
			i = j + 1
		default:
			j := i
			for j < len(formula) && formula[j] != '(' && formula[j] != ')' &&
				formula[j] != '|' && !unicode.IsSpace(rune(formula[j])) {
				j++
			}
			tok := formula[i:j]
			if sufReserved[tok] {
				out.WriteString(tok)
			} else if _, err := strconv.Atoi(tok); err == nil {
				out.WriteString(tok) // numeral offset, not a symbol
			} else {
				fmt.Fprintf(&out, "%s_s%d", tok, salt)
			}
			i = j
		}
	}
	return out.String()
}
