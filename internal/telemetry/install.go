package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// bound is the state every declared kind shares: the metric name, and the
// registry instrument Install bound it to (nil while none is). An unbound
// instrument costs one atomic pointer load and a branch; a bound one adds
// a single atomic add (a mutex-guarded histogram add for a timing).
type bound[T any] struct {
	name string
	p    atomic.Pointer[T]
}

// NamedCounter is a declared counter.
type NamedCounter struct{ bound[Counter] }

// Inc counts one event into the bound counter, if any.
func (n *NamedCounter) Inc() {
	if c := n.p.Load(); c != nil {
		c.Inc()
	}
}

// Add counts v into the bound counter, if any.
func (n *NamedCounter) Add(v uint64) {
	if c := n.p.Load(); c != nil {
		c.Add(v)
	}
}

// Load returns the bound counter's value, 0 when unbound.
func (n *NamedCounter) Load() uint64 {
	if c := n.p.Load(); c != nil {
		return c.Load()
	}
	return 0
}

// NamedGauge is a declared gauge.
type NamedGauge struct{ bound[Gauge] }

// Set stores v in the bound gauge, if any.
func (n *NamedGauge) Set(v int64) {
	if g := n.p.Load(); g != nil {
		g.Set(v)
	}
}

// Add adjusts the bound gauge by delta, if any.
func (n *NamedGauge) Add(delta int64) {
	if g := n.p.Load(); g != nil {
		g.Add(delta)
	}
}

// Load returns the bound gauge's value, 0 when unbound.
func (n *NamedGauge) Load() int64 {
	if g := n.p.Load(); g != nil {
		return g.Load()
	}
	return 0
}

// NamedTiming is a declared timing.
type NamedTiming struct{ bound[Timing] }

// Observe records d in the bound timing, if any.
func (n *NamedTiming) Observe(d time.Duration) {
	if t := n.p.Load(); t != nil {
		t.Observe(d)
	}
}

// declared is the registration table the Declare functions fill during
// package initialization and Install walks.
var declared = struct {
	mu       sync.Mutex
	names    map[string]bool
	counters []*bound[Counter]
	gauges   []*bound[Gauge]
	timings  []*bound[Timing]
}{names: map[string]bool{}}

// DeclareCounter declares the counter named name. Call it once per name,
// in a package-level variable declaration of the package that counts,
// named after the metric:
//
//	var pkgEvents = telemetry.DeclareCounter("pkg.events")
func DeclareCounter(name string) *NamedCounter {
	n := &NamedCounter{bound[Counter]{name: name}}
	declare(&declared.counters, &n.bound)
	return n
}

// DeclareGauge declares the gauge named name. Call it once per name, in a
// package-level variable declaration.
func DeclareGauge(name string) *NamedGauge {
	n := &NamedGauge{bound[Gauge]{name: name}}
	declare(&declared.gauges, &n.bound)
	return n
}

// DeclareTiming declares the timing named name. Call it once per name, in
// a package-level variable declaration.
func DeclareTiming(name string) *NamedTiming {
	n := &NamedTiming{bound[Timing]{name: name}}
	declare(&declared.timings, &n.bound)
	return n
}

// declare adds b to list. A name declared twice, under any kind, is a bug
// in the declaring packages and panics at start-up, as expvar.Publish does.
func declare[T any](list *[]*bound[T], b *bound[T]) {
	declared.mu.Lock()
	defer declared.mu.Unlock()
	if declared.names[b.name] {
		panic(fmt.Sprintf("telemetry: instrument %q declared twice", b.name))
	}
	declared.names[b.name] = true
	*list = append(*list, b)
}

var (
	installedReg   atomic.Pointer[Registry]
	installedTrace atomic.Pointer[Trace]
)

// Install binds every declared instrument to reg's instrument of the same
// name, creating each in reg, and makes tr the trace Emit writes to. It
// returns an uninstall that restores the previous bindings. Either
// argument may be nil to bind only metrics or only tracing. The binding
// is process-wide, so a program installs once at start-up; concurrent
// campaigns in one process share the registry.
func Install(reg *Registry, tr *Trace) (uninstall func()) {
	declared.mu.Lock()
	defer declared.mu.Unlock()
	restore := []func(){
		bind(declared.counters, reg, (*Registry).Counter),
		bind(declared.gauges, reg, (*Registry).Gauge),
		bind(declared.timings, reg, (*Registry).Timing),
	}
	prevReg := installedReg.Swap(reg)
	prevTrace := installedTrace.Swap(tr)
	return func() {
		declared.mu.Lock()
		defer declared.mu.Unlock()
		for _, r := range restore {
			r()
		}
		installedReg.Store(prevReg)
		installedTrace.Store(prevTrace)
	}
}

// bind points each instrument in list at reg's instrument of its name, or
// at nothing when reg is nil, and returns a func that restores the
// previous targets.
func bind[T any](list []*bound[T], reg *Registry, lookup func(*Registry, string) *T) (restore func()) {
	prev := make([]*T, len(list))
	for i, b := range list {
		var target *T
		if reg != nil {
			target = lookup(reg, b.name)
		}
		prev[i] = b.p.Swap(target)
	}
	return func() {
		for i, b := range list {
			b.p.Store(prev[i])
		}
	}
}

// Emit appends ev to the installed trace; it does nothing when none is.
func Emit(ev Event) { installedTrace.Load().Emit(ev) }

// Tracing reports whether a trace is installed. A call site that formats
// an event's detail checks it first, so an untraced run never pays for
// the formatting.
func Tracing() bool { return installedTrace.Load() != nil }
