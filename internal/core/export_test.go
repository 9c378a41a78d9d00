package core

import (
	"context"

	"sufsat/internal/boolexpr"
	"sufsat/internal/perconstraint"
	"sufsat/internal/sep"
	"sufsat/internal/suf"
)

// EncodeDemoted runs encode for the external tests, which need the benchmark
// suite and so cannot live in this package: F_bvar of the analyzed formula
// under opts with the classes in demoted routed to SD, and the EIJ encoder
// that generates its F_trans.
func EncodeDemoted(info *sep.Info, b *suf.Builder, bb *boolexpr.Builder, opts Options,
	demoted map[*sep.Class]bool) (*boolexpr.Node, *perconstraint.Encoder, error) {
	var st Stats
	bvar, _, eij, err := encode(context.Background(), info, b, bb, opts, demoted, &st, nil)
	return bvar, eij, err
}
