package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForVisitsEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 193
		counts := make([]int32, n)
		err := For(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForSerialPathRunsInOrder(t *testing.T) {
	var order []int
	err := For(context.Background(), 1, 10, func(i int) error {
		order = append(order, i) // no synchronization: must be one goroutine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestForDeterministicPlacement(t *testing.T) {
	const n = 100
	build := func(workers int) []int {
		out := make([]int, n)
		SweepCtx(context.Background(), workers, n, func(i int) { out[i] = i * i })
		return out
	}
	serial := build(1)
	for _, w := range []int{2, 5, 16} {
		got := build(w)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: slot %d = %d, serial %d", w, i, got[i], serial[i])
			}
		}
	}
}

func TestForReturnsFirstError(t *testing.T) {
	want := errors.New("boom")
	err := For(context.Background(), 4, 50, func(i int) error {
		if i == 13 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if workers == 1 {
					// The serial path runs fn on the caller's goroutine, so
					// the panic arrives unwrapped.
					if r != "kaboom" {
						t.Errorf("workers=1: recovered %v", r)
					}
					return
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T %v, want *PanicError", workers, r, r)
				}
				if pe.Value != "kaboom" {
					t.Errorf("panic value %v", pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Error("panic lost its stack")
				}
			}()
			SweepCtx(context.Background(), workers, 20, func(i int) {
				if i == 7 {
					panic("kaboom")
				}
			})
			t.Errorf("workers=%d: sweep returned normally", workers)
		}()
	}
}

func TestForContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		err := For(ctx, workers, 10, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d iterations ran under a cancelled ctx", workers, ran.Load())
		}
	}
}

func TestForMidSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- For(ctx, 2, 1000, func(i int) error {
			ran.Add(1)
			<-release
			return nil
		})
	}()
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the sweep (%d iterations)", n)
	}
}

func TestForEmptyAndNegativeN(t *testing.T) {
	called := false
	if err := For(context.Background(), 4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := For(context.Background(), 4, -3, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called for empty index space")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

func TestGroupSingleflightAndCache(t *testing.T) {
	var g Group[string, *int]
	var builds atomic.Int32
	const callers = 16
	results := make([]*int, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func(k int) {
			defer wg.Done()
			results[k] = g.Do("key", func() *int {
				n := int(builds.Add(1))
				return &n
			})
		}(k)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times", builds.Load())
	}
	for k := 1; k < callers; k++ {
		if results[k] != results[0] {
			t.Fatal("waiters got distinct values")
		}
	}
	// A later call hits the cache.
	if got := g.Do("key", func() *int { builds.Add(1); return nil }); got != results[0] {
		t.Error("cached value not returned")
	}
	if builds.Load() != 1 {
		t.Error("cache miss on second call")
	}
}

func TestGroupDistinctKeys(t *testing.T) {
	var g Group[int, int]
	a := g.Do(1, func() int { return 10 })
	b := g.Do(2, func() int { return 20 })
	if a != 10 || b != 20 {
		t.Fatalf("got %d, %d", a, b)
	}
}

func TestGroupPanicReachesWaitersAndLaterCallers(t *testing.T) {
	var g Group[string, int]
	var builds atomic.Int32
	expectPanic := func() (r any) {
		defer func() { r = recover() }()
		g.Do("bad", func() int { builds.Add(1); panic("broken build") })
		return nil
	}
	for call := 0; call < 2; call++ { // a panic caches nothing: each call builds
		if r := expectPanic(); r != "broken build" {
			t.Fatalf("call %d: recovered %v", call, r)
		}
	}
	if builds.Load() != 2 {
		t.Errorf("build ran %d times, want 2 (one per call)", builds.Load())
	}
}

func TestSweepCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- SweepCtx(ctx, 2, 1000, func(i int) {
			ran.Add(1)
			<-release
		})
	}()
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the sweep (%d iterations)", n)
	}
}

func TestAbortCause(t *testing.T) {
	cause := context.Canceled
	if got := AbortCause(&AbortError{Err: cause}); got != cause {
		t.Errorf("bare abort: cause %v", got)
	}
	wrapped := &PanicError{Value: &AbortError{Err: cause}}
	if got := AbortCause(wrapped); got != cause {
		t.Errorf("worker-wrapped abort: cause %v", got)
	}
	if got := AbortCause("kaboom"); got != nil {
		t.Errorf("plain panic classified as abort: %v", got)
	}
	if !errors.Is(&AbortError{Err: context.Canceled}, context.Canceled) {
		t.Error("AbortError does not unwrap to its context error")
	}
}

func TestGroupDoesNotCacheAborts(t *testing.T) {
	var g Group[string, int]
	var builds atomic.Int32
	abort := func() (r any) {
		defer func() { r = recover() }()
		g.Do("key", func() int {
			builds.Add(1)
			panic(&AbortError{Err: context.Canceled})
		})
		return nil
	}
	if r := abort(); AbortCause(r) == nil {
		t.Fatalf("abort panic did not propagate to the builder: %v", r)
	}
	// A later call retries the build rather than replaying the abort.
	got := g.Do("key", func() int {
		builds.Add(1)
		return 42
	})
	if got != 42 {
		t.Fatalf("retry after abort: %d", got)
	}
	if builds.Load() != 2 {
		t.Errorf("build ran %d times, want 2 (abort + retry)", builds.Load())
	}
}

// TestGroupWaiterOutlastsCancel pins the waiter path: a caller whose
// context has ended still waits for the key's build and gets its value,
// whenever it arrives during the build.
func TestGroupWaiterOutlastsCancel(t *testing.T) {
	var g Group[string, int]
	inBuild := make(chan struct{})
	release := make(chan struct{})
	go func() {
		g.Do("slow", func() int {
			close(inBuild)
			<-release
			return 1
		})
	}()
	<-inBuild
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan int, 1)
	go func() {
		// The waiter's own build would abort on its ended context.
		done <- g.Do("slow", func() int { panic(&AbortError{Err: ctx.Err()}) })
	}()
	var v int
	select {
	case v = <-done:
		t.Fatal("waiter returned before the build ended")
	case <-time.After(100 * time.Millisecond):
		close(release)
		v = <-done
	}
	if v != 1 {
		t.Errorf("waiter got %d, want the builder's value 1", v)
	}
}

func TestGroupWaiterRetriesAfterBuilderAbort(t *testing.T) {
	var g Group[string, int]
	inBuild := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do("key", func() int {
			close(inBuild)
			<-release
			panic(&AbortError{Err: context.Canceled})
		})
	}()
	<-inBuild
	done := make(chan int, 1)
	go func() {
		done <- g.Do("key", func() int { return 7 })
	}()
	close(release)
	if v := <-done; v != 7 {
		t.Errorf("waiter got %d after builder abort, want its own rebuild (7)", v)
	}
}
