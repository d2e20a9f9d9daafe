package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversAllItems(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 2, 4, 100} {
		n := 237
		hits := make([]atomic.Int32, n)
		if err := RunCtx(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestRunReturnsSmallestIndexError(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	// Every item from 50 on fails; the reported error must be one of the
	// failing items and, across many runs, never precede index 50.
	for trial := 0; trial < 20; trial++ {
		err := RunCtx(context.Background(), 4, 200, func(i int) error {
			if i >= 50 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
	}
}

func TestRunCancelsAfterFailure(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	boom := errors.New("boom")
	var executed atomic.Int32
	err := RunCtx(context.Background(), 4, 10000, func(i int) error {
		executed.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Cancellation is prompt: nowhere near all items may run. The bound is
	// loose (each worker can be mid-item when the flag flips).
	if n := executed.Load(); n > 5000 {
		t.Fatalf("executed %d items after failure; cancellation did not propagate", n)
	}
}

func TestSerialIsInOrderAndFailFast(t *testing.T) {
	var seen []int
	err := RunCtx(context.Background(), 1, 10, func(i int) error {
		seen = append(seen, i)
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || len(seen) != 5 {
		t.Fatalf("serial run: seen=%v err=%v", seen, err)
	}
	for i, v := range seen {
		if i != v {
			t.Fatalf("serial order violated: %v", seen)
		}
	}
}

func TestRunCtxCancelsMidRun(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int32
		err := RunCtx(ctx, workers, 10000, func(i int) error {
			if executed.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := executed.Load(); n > 5000 {
			t.Fatalf("workers=%d: executed %d items after cancel", workers, n)
		}
	}
}

func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := RunCtx(ctx, 1, 1000, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestRunCtxCompletedBeforeCancelIsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := RunCtx(ctx, 1, 10, func(i int) error { return nil }); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	cancel()
}

func TestRunRecoversPanic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, workers := range []int{1, 4} {
		err := RunCtx(context.Background(), workers, 100, func(i int) error {
			if i == 7 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: panic not surfaced as error: %v", workers, err)
		}
	}
}

func TestRunWorkersRecoversPanicValueError(t *testing.T) {
	boom := errors.New("typed boom")
	err := RunWorkersCtx(context.Background(), 1, 3, func(_, i int) error {
		if i == 1 {
			panic(boom)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "typed boom") {
		t.Fatalf("got %v", err)
	}
}

func TestClamp(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	if got := Clamp(0, 10); got != 1 {
		t.Fatalf("Clamp(0,10)=%d", got)
	}
	if got := Clamp(8, 3); got != 3 {
		t.Fatalf("Clamp(8,3)=%d", got)
	}
	if got := Clamp(3, -1); got < 1 {
		t.Fatalf("Clamp(3,-1)=%d", got)
	}
}
