package bench

import (
	"context"
	"fmt"
	"time"

	"sufsat"
)

// BMC-stream workload: a depth sweep of bounded model checking over a
// term-level system, run twice — cold (one full decision pipeline per depth,
// System.BMC) and warm (one incremental solver session answering every depth
// by assumption, System.BMCIncremental). This is the paper's own workload
// shape: processor-verification queries arrive as a stream of closely
// related formulas, and the incremental path's job is to stop re-solving the
// shared part. The report carries both wall times and the verdict-equality
// check; RunBMCStream fails rather than reporting a speedup built on a
// verdict mismatch.

// bmcStreamDepth is the sweep's unrolling depth: it keeps the cold side
// under a second on a laptop while leaving a wide gap for the session to win.
const bmcStreamDepth = 8

// BMCStreamReport is the outcome of one BMC-stream comparison.
type BMCStreamReport struct {
	// Queries is the number of per-depth validity checks in the sweep.
	Queries int
	// Holds is the (agreed) verdict of the sweep.
	Holds bool

	ColdMS float64
	WarmMS float64
	// Speedup is ColdMS / WarmMS.
	Speedup float64
}

// lockstepSystem builds the redundant-datapath system: two copies of an
// uninterpreted ALU consume the same operand stream from the same start
// state; the safety property is that they stay in lockstep. The per-depth
// queries are pure EIJ work (function-congruence chains that deepen with the
// unrolling), so each cold depth pays a full analyze/encode/solve pipeline
// over terms the previous depths already processed — exactly what the
// session amortizes.
func lockstepSystem() (*sufsat.System, sufsat.Formula) {
	b := sufsat.NewBuilder()
	sys := sufsat.NewSystem(b)
	x := sys.IntVar("x")
	y := sys.IntVar("y")
	op := sys.IntInput("op")
	sys.SetNext("x", b.Fn("alu", x, op))
	sys.SetNext("y", b.Fn("alu", y, op))
	sys.SetInit(b.Eq(x, y))
	return sys, b.Eq(x, y)
}

// RunBMCStream runs the cold and warm sweeps to bmcStreamDepth on the
// lockstep system and returns the comparison. It errors if the two paths
// disagree on any verdict — a speedup over a wrong answer is not a speedup.
func RunBMCStream(ctx context.Context) (*BMCStreamReport, error) {
	const depth = bmcStreamDepth
	opts := sufsat.Options{Timeout: 5 * time.Minute}

	coldSys, coldProp := lockstepSystem()
	coldStart := time.Now()
	cold, err := coldSys.BMC(coldProp, depth, opts)
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	coldDur := time.Since(coldStart)
	if cold.Timeout {
		return nil, fmt.Errorf("cold sweep hit a resource limit at depth %d", cold.Step)
	}

	warmSys, warmProp := lockstepSystem()
	warmStart := time.Now()
	warm, err := warmSys.BMCIncrementalContext(ctx, warmProp, depth, opts)
	if err != nil {
		return nil, fmt.Errorf("warm sweep: %w", err)
	}
	warmDur := time.Since(warmStart)
	if warm.Timeout {
		return nil, fmt.Errorf("warm sweep hit a resource limit at depth %d", warm.Step)
	}

	if cold.Holds != warm.Holds || cold.Step != warm.Step {
		return nil, fmt.Errorf("verdict mismatch: cold holds=%v step=%d, warm holds=%v step=%d",
			cold.Holds, cold.Step, warm.Holds, warm.Step)
	}

	rep := &BMCStreamReport{
		Queries: depth + 1,
		Holds:   cold.Holds,
		ColdMS:  float64(coldDur.Microseconds()) / 1e3,
		WarmMS:  float64(warmDur.Microseconds()) / 1e3,
	}
	if warmDur > 0 {
		rep.Speedup = float64(coldDur) / float64(warmDur)
	}
	return rep, nil
}
