// Package faultinject is a fault-injection harness for the Decide pipeline.
// An Injector matches the core.StageHook signature and, when a configured
// pipeline stage is reached, cancels a context, returns an error, or panics —
// exercising the cancellation, budget and panic-containment paths at each
// stage boundary without contriving formulas that fail there naturally. It
// also provides a goroutine-leak checker used to verify that the portfolio
// racer leaves no live workers behind.
package faultinject

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Action is what an Injector does when its target stage is reached.
type Action int

// Injection actions.
const (
	// Observe records stage entries without interfering.
	Observe Action = iota
	// CancelContext invokes the CancelFunc installed with OnCancel; the
	// pipeline then notices the dead context at its own next poll point,
	// exactly like an external caller cancelling mid-run.
	CancelContext
	// ReturnError aborts the stage with the error installed with OnError (a
	// generic injected error when none was installed).
	ReturnError
	// Panic panics with a descriptive value, for exercising the facade's
	// panic containment.
	Panic
)

// Injector fires a configured Action the first time a target pipeline stage
// is entered, and records every stage it observes. It is safe for concurrent
// use (the portfolio racer calls hooks from several goroutines).
type Injector struct {
	mu      sync.Mutex
	target  string
	action  Action
	cancel  context.CancelFunc
	err     error
	every   int
	seen    int
	visited []string
	fired   int
}

// New returns an Injector firing action at the named pipeline stage (one of
// core.Stages; an unknown name simply never fires).
func New(target string, action Action) *Injector {
	return &Injector{target: target, action: action}
}

// OnCancel installs the CancelFunc invoked by CancelContext and returns i.
func (i *Injector) OnCancel(cancel context.CancelFunc) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.cancel = cancel
	return i
}

// OnError installs the error returned by ReturnError and returns i.
func (i *Injector) OnError(err error) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.err = err
	return i
}

// EveryNth makes the Injector fire only on every nth visit of the target
// stage (the nth, 2nth, … visits) instead of on every visit, and returns i.
// A soak harness uses it to fault a deterministic fraction of a request
// stream — e.g. panic on every 7th request — while the rest proceed
// normally. n < 2 restores fire-on-every-visit.
func (i *Injector) EveryNth(n int) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.every = n
	return i
}

// Stage implements the core.StageHook signature; install it as
// Options.Hook (the method value i.Stage).
func (i *Injector) Stage(name string) error {
	i.mu.Lock()
	i.visited = append(i.visited, name)
	match := name == i.target
	if match {
		i.seen++
		if i.every > 1 && i.seen%i.every != 0 {
			match = false
		}
	}
	if match {
		i.fired++
	}
	action, cancel, err := i.action, i.cancel, i.err
	i.mu.Unlock()
	if !match {
		return nil
	}
	switch action {
	case CancelContext:
		if cancel != nil {
			cancel()
		}
	case ReturnError:
		if err == nil {
			err = fmt.Errorf("faultinject: injected error at stage %q", name)
		}
		return err
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at stage %q", name))
	}
	return nil
}

// Visited returns a copy of the stage names observed so far, in order.
func (i *Injector) Visited() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.visited...)
}

// Fired reports how many times the target stage was reached.
func (i *Injector) Fired() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// LeakCheck runs f and verifies that every goroutine started while it ran
// has exited within grace (a zero grace means 3s). It compares goroutine
// IDs from full stack dumps taken before and after, not counts, so a
// goroutine that existed before f and exits while f runs cannot hide one
// that f leaks. Workers that outlive their run — portfolio losers after the
// winner returns, pollers after cancellation — are given the grace to
// notice and exit; if they do not, the returned error carries the stacks of
// the new goroutines still alive.
func LeakCheck(f func(), grace time.Duration) error {
	if grace <= 0 {
		grace = 3 * time.Second
	}
	before := goroutines()
	f()
	deadline := time.Now().Add(grace)
	for {
		var leaked []string
		for id, stack := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			sort.Strings(leaked)
			return fmt.Errorf("faultinject: goroutine leak: %d goroutines started during the run still alive after %v grace\n%s",
				len(leaked), grace, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutines returns the stack of every live goroutine keyed by its ID,
// parsed from a full runtime.Stack dump, whose blocks each start with
// "goroutine <id> [<state>]:". Goroutine IDs are never reused.
func goroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if rest, ok := strings.CutPrefix(g, "goroutine "); ok {
			if id, _, ok := strings.Cut(rest, " "); ok {
				out[id] = g
			}
		}
	}
	return out
}
