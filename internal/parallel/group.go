package parallel

import (
	"context"
	"runtime/debug"
	"sync"
)

// Group is a cache with per-key singleflight semantics: the first DoCtx
// call for a key runs build, every concurrent DoCtx for the same key
// blocks until that build finishes, and later calls return the cached
// value without running build again. The zero value is ready to use.
//
// A panicking build is cached as the panic and re-raised (as *PanicError)
// for the builder, every concurrent waiter, and every later caller: the
// builds here are deterministic measurements, so retrying a panicked key
// would fail identically. The exception is an *AbortError panic — a build
// that unwound because its context was cancelled. Aborts are not cached:
// the flight is removed from the map, concurrent waiters retry (the next
// one becomes the builder under its own, possibly live, context), and a
// later caller rebuilds from scratch.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done    chan struct{}
	val     V
	pan     *PanicError
	aborted bool
}

// DoCtx returns the value for key, computing it with build at most once
// per Group lifetime even under concurrent callers. Cancellation applies
// to the waiting path: a caller blocked on another goroutine's in-flight
// build stops waiting when ctx is done and returns the context error with
// a zero value. The build itself runs under the *builder's* control —
// cancelling a waiter never cancels the build — so a build closure that
// should stop early must watch its own context (the session builds do,
// via SweepCtx) and unwind by panicking with *AbortError.
func (g *Group[K, V]) DoCtx(ctx context.Context, key K, build func() V) (V, error) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = map[K]*flight[V]{}
		}
		if f, ok := g.m[key]; ok {
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if f.aborted {
				// The builder's context died mid-build. Retry: the
				// flight is already un-mapped, so this caller (or
				// another) becomes the new builder.
				if err := ctx.Err(); err != nil {
					var zero V
					return zero, err
				}
				continue
			}
			if f.pan != nil {
				panic(f.pan)
			}
			return f.val, nil
		}
		f := &flight[V]{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		return g.build(key, f, build)
	}
}

// build runs the flight's build on the calling goroutine, caching the
// value (or the panic), and un-caching the flight entirely when the build
// aborted on context cancellation.
func (g *Group[K, V]) build(key K, f *flight[V], build func() V) (V, error) {
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			if AbortCause(r) != nil {
				f.aborted = true
				g.mu.Lock()
				delete(g.m, key)
				g.mu.Unlock()
				panic(r)
			}
			if pe, ok := r.(*PanicError); ok {
				f.pan = pe
			} else {
				f.pan = &PanicError{Value: r, Stack: debug.Stack()}
			}
			panic(f.pan)
		}
	}()
	f.val = build()
	return f.val, nil
}
