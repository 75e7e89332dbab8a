package sched

import "voltsmooth/internal/telemetry"

// The scheduler's instruments. They are fed at quantum and cell
// boundaries, never inside the per-cycle sampling loops, and observe only:
// the schedule a policy produces is bit-identical whether they are bound
// or not.
var (
	// schedQuanta counts scheduling quanta executed by the online
	// scheduler.
	schedQuanta = telemetry.DeclareCounter("sched.quanta")
	// schedSwaps counts quanta whose picked pair differs from the previous
	// quantum's (a context switch on at least one core); each also emits
	// a "sched.swap" event.
	schedSwaps = telemetry.DeclareCounter("sched.swaps")
	// SchedEmergencies accumulates margin crossings measured over
	// completed online schedules.
	SchedEmergencies = telemetry.DeclareCounter("sched.emergencies")
	// SchedCells counts completed oracle pair-table cells, single-core
	// references and pairs. NewPairTable measures nothing, so the caller
	// that measures or reads the cells it hands NewPairTable counts them
	// here.
	SchedCells = telemetry.DeclareCounter("sched.cells")
)
