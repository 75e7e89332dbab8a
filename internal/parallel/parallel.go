// Package parallel is the sweep engine behind the reproduction's pre-run
// measurement phases. The paper's Sec IV study is explicitly such a phase
// ("During a pre-run phase we gather all the data necessary across 29×29
// CPU2006 program combinations"), and every run in it — like every run of
// the characterization corpus — is an independent, deterministically
// seeded simulation. That makes the sweeps embarrassingly parallel: the
// engine fans an index space out over a bounded worker pool while callers
// write each result into a preallocated slot, so parallel output is
// bit-identical to serial output at any worker count.
//
// The package also provides Group, a cache with one lock per key held
// across that key's build, so concurrent experiments share one build of
// each shared measurement.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the fan-out width used when a caller passes a
// non-positive worker count: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError carries a panic recovered on a worker goroutine to the
// caller, preserving the originating stack trace. It is re-raised with
// panic, so unrecovered sweeps still crash with the worker's stack in the
// report.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // stack of the goroutine that panicked
}

// AbortError marks work abandoned cooperatively — a sweep or measurement
// build that observed context cancellation and unwound by panicking. It is
// the one panic class that means "stop, don't diagnose": the recovery
// boundary (experiments.Session.Run) translates it back into the context
// error instead of treating it as a crash. Like every panicking build, an
// aborted Group build caches nothing, so the key's next caller rebuilds.
type AbortError struct {
	Err error // the context error that triggered the abort
}

// Error implements error.
func (a *AbortError) Error() string { return fmt.Sprintf("parallel: aborted: %v", a.Err) }

// Unwrap exposes the underlying context error, so
// errors.Is(err, context.Canceled) works through an abort.
func (a *AbortError) Unwrap() error { return a.Err }

// AbortCause returns the context error carried by an abort panic value —
// either a bare *AbortError or one wrapped in a *PanicError by a worker
// recovery — and nil for every other value.
func AbortCause(r any) error {
	switch v := r.(type) {
	case *AbortError:
		return v.Err
	case *PanicError:
		if a, ok := v.Value.(*AbortError); ok {
			return a.Err
		}
	}
	return nil
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was itself an error.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// For runs fn(i) for every index i in [0, n) on at most `workers`
// goroutines and waits for all of them. workers <= 0 means
// DefaultWorkers(); workers == 1 runs everything serially, in index
// order, on the calling goroutine — the exact historical serial path.
//
// Indexes are handed out dynamically, so callers must not depend on
// execution order at widths > 1; deterministic placement comes from
// writing result i into slot i of a preallocated slice.
//
// The first fn error cancels the sweep and is returned. A cancelled ctx
// stops the sweep and its error is returned. A panicking fn stops the
// sweep and the panic is re-raised on the calling goroutine as a
// *PanicError wrapping the original value.
func For(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
		pan   *PanicError
	)
	stop := make(chan struct{})
	fail := func(err error, p *PanicError) {
		once.Do(func() {
			first, pan = err, p
			close(stop)
		})
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if pe, ok := r.(*PanicError); ok {
						fail(nil, pe) // nested sweep: keep the original stack
						return
					}
					fail(nil, &PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ctx.Err(); err != nil {
					fail(err, nil)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					fail(err, nil)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pan != nil {
		panic(pan)
	}
	return first
}

// SweepCtx is For for the measurement-sweep case — fn has no error path —
// but honors cancellation: a cancelled ctx stops handing out indexes, the
// in-flight fn calls finish, and the context's error is returned. Workers
// poll ctx between indexes, so a sweep over long-running simulations
// unwinds at the next run boundary rather than blocking forever.
func SweepCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	return For(ctx, workers, n, func(i int) error {
		fn(i)
		return nil
	})
}
