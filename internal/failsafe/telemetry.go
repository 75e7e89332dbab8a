package failsafe

import "voltsmooth/internal/telemetry"

// The recovery engine's instruments. They are fed per emergency and per
// recovery, never inside the per-cycle committed loop, and observe only:
// the engine's ledger and counters are bit-identical whether they are
// bound or not. Each detected crossing also emits a "failsafe.emergency"
// event, and each completed recovery a "failsafe.recovery" event.
var (
	// FailsafeEmergencies counts detected margin crossings (each triggers
	// one recovery).
	FailsafeEmergencies = telemetry.DeclareCounter("failsafe.emergencies")
	// failsafeFlushes counts Razor-style fixed-cost pipeline flushes.
	failsafeFlushes = telemetry.DeclareCounter("failsafe.flushes")
	// failsafeRollbacks counts checkpoint restores.
	failsafeRollbacks = telemetry.DeclareCounter("failsafe.rollbacks")
	// failsafeReplayedCycles accumulates committed work destroyed by
	// rollbacks.
	failsafeReplayedCycles = telemetry.DeclareCounter("failsafe.replayed_cycles")
	// failsafeStallCycles accumulates cycles the machine spent frozen in
	// recovery.
	failsafeStallCycles = telemetry.DeclareCounter("failsafe.stall_cycles")
)
