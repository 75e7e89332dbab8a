package sched

import (
	"sync/atomic"

	"voltsmooth/internal/telemetry"
)

// Hooks is the scheduler's telemetry surface. Every field may be nil; a
// nil field is skipped at the call site, so partial instrumentation is
// free. Hook calls happen at quantum and cell boundaries (never inside the
// per-cycle sampling loops) and observe only — the schedule a policy
// produces is bit-identical with hooks installed or not.
type Hooks struct {
	// Quanta counts scheduling quanta executed by the online scheduler.
	Quanta *telemetry.Counter
	// Swaps counts quanta whose picked pair differs from the previous
	// quantum's (a context switch on at least one core).
	Swaps *telemetry.Counter
	// Emergencies accumulates margin crossings measured over completed
	// online schedules.
	Emergencies *telemetry.Counter
	// Cells counts completed oracle pair-table cells, single-core
	// references and pairs: BuildPairTableCtx counts the cells it
	// measures, and a caller that measures cells itself for NewPairTable
	// counts them with CellDone.
	Cells *telemetry.Counter
	// Trace receives one "sched.swap" event per pair change.
	Trace *telemetry.Trace
}

var hooks atomic.Pointer[Hooks]

// SetHooks installs (or, with nil, removes) the package's telemetry hooks
// and returns the previously installed set. Typically wired once at
// campaign start by internal/telemetry/wire.
func SetHooks(h *Hooks) *Hooks { return hooks.Swap(h) }

// CellDone counts one completed oracle cell on the Cells hook.
func CellDone() {
	if h := hooks.Load(); h != nil && h.Cells != nil {
		h.Cells.Inc()
	}
}
