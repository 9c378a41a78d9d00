package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestObserveRecordsWithoutInterfering(t *testing.T) {
	inj := New("encode", Observe)
	for _, st := range []string{"funcelim", "encode", "sat", "encode"} {
		if err := inj.Stage(st); err != nil {
			t.Fatalf("Observe returned error at %s: %v", st, err)
		}
	}
	got := inj.Visited()
	want := []string{"funcelim", "encode", "sat", "encode"}
	if len(got) != len(want) {
		t.Fatalf("Visited = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Visited = %v, want %v", got, want)
		}
	}
	if inj.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", inj.Fired())
	}
}

func TestReturnErrorOnlyAtTarget(t *testing.T) {
	boom := errors.New("boom")
	inj := New("sat", ReturnError).OnError(boom)
	if err := inj.Stage("encode"); err != nil {
		t.Fatalf("fired at non-target stage: %v", err)
	}
	if err := inj.Stage("sat"); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestReturnErrorDefault(t *testing.T) {
	inj := New("sat", ReturnError)
	if err := inj.Stage("sat"); err == nil {
		t.Fatal("want a generic injected error, got nil")
	}
}

func TestCancelContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inj := New("trans", CancelContext).OnCancel(cancel)
	if err := inj.Stage("trans"); err != nil {
		t.Fatalf("CancelContext should not return an error, got %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled after the target stage")
	}
}

func TestPanicAction(t *testing.T) {
	inj := New("sat", Panic)
	defer func() {
		if recover() == nil {
			t.Error("expected a panic at the target stage")
		}
	}()
	_ = inj.Stage("sat")
}

func TestLeakCheckPasses(t *testing.T) {
	if err := LeakCheck(func() {}, time.Second); err != nil {
		t.Fatalf("no-op flagged as leak: %v", err)
	}
}

func TestLeakCheckCatchesStraggler(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	err := LeakCheck(func() {
		go func() { <-release }()
	}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("leaked goroutine not detected")
	}
}

// TestLeakCheckSeesMaskedLeak: a goroutine that existed before the run and
// exits during it must not hide one the run leaks, as it would if only
// goroutine counts were compared.
func TestLeakCheckSeesMaskedLeak(t *testing.T) {
	exit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		<-exit
		close(exited)
	}()
	release := make(chan struct{})
	defer close(release)
	err := LeakCheck(func() {
		go func() { <-release }()
		close(exit)
		<-exited
	}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("leak masked by an exiting goroutine not detected")
	}
	if !strings.Contains(err.Error(), "TestLeakCheckSeesMaskedLeak") {
		t.Errorf("error lacks the leaked goroutine's stack:\n%v", err)
	}
}
