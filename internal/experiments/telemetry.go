package experiments

import (
	"sync/atomic"

	"voltsmooth/internal/telemetry"
)

// Hooks is the session's telemetry surface. Every field may be nil. Hook
// calls happen per completed experiment and per completed measurement unit
// (a corpus run) — never inside a simulation loop — and observe only:
// every figure and journal byte is bit-identical with hooks installed or
// not.
type Hooks struct {
	// Experiments counts completed Session.Run calls (failures included).
	Experiments *telemetry.Counter
	// Units counts corpus runs: each run a corpus folds counts once,
	// whether the corpus build measured it, replayed it from the journal,
	// or shares it with a consumer that built it first (the oracle table
	// reads the multi-program runs and fig15 the Proc3 single-threaded
	// runs, and another variant's corpus may have built it as a lane of
	// the same chip run). A shared run counts as it completes when the
	// corpus is the one building it, and when the corpus reads it
	// otherwise. Oracle-table cells, shared pair runs included, are
	// counted by sched.Hooks.Cells.
	Units *telemetry.Counter
	// Emergencies accumulates each corpus run's margin crossings at the
	// paper's characterization margin (core.PhaseMargin) — the campaign's
	// running "emergencies so far" figure.
	Emergencies *telemetry.Counter
	// WallTime observes each experiment's wall-clock duration.
	WallTime *telemetry.Timing
	// Trace receives "exp.start" and "exp.done" events per Session.Run.
	Trace *telemetry.Trace
}

var hooks atomic.Pointer[Hooks]

// SetHooks installs (or, with nil, removes) the package's telemetry hooks
// and returns the previously installed set. Typically wired once at
// campaign start by internal/telemetry/wire.
func SetHooks(h *Hooks) *Hooks { return hooks.Swap(h) }
