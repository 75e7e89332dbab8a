package parallel

import "sync"

// Group is a cache with one mutex per key, held across that key's build:
// the first Do of a key runs build, every Do of the key that arrives
// while it runs waits for it to end, and later calls return the cached
// value without running build again. The zero value is ready to use.
//
// A build that panics caches nothing: the panic unwinds through the
// builder's Do unchanged, and the key's next Do — a caller that waited
// on the failed build, or a later one — runs its own build. That covers
// an *AbortError (a build that unwound because its context was
// cancelled) and a bug alike: a deterministic bug panics again in each
// caller's build.
//
// A build may call Do on other keys, never on its own: a caller holds
// the key's lock for the whole build, so keys must be locked in one
// order. Each user documents its order (experiments.Session does).
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

// entry is one key's lock and, once a build has returned, its value.
type entry[V any] struct {
	mu   sync.Mutex
	done bool
	val  V
}

// Do returns the value for key, running build only when no earlier build
// of the key returned. A caller of a key that is being built waits for
// that build, whatever its own context says: a build stops early only by
// watching its own context (the session builds do, via SweepCtx) and
// panicking with *AbortError.
func (g *Group[K, V]) Do(key K, build func() V) V {
	g.mu.Lock()
	e, ok := g.m[key]
	if !ok {
		if g.m == nil {
			g.m = map[K]*entry[V]{}
		}
		e = &entry[V]{}
		g.m[key] = e
	}
	g.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val = build()
		e.done = true
	}
	return e.val
}
