package chaos

import "voltsmooth/internal/telemetry"

// The fault plane's instruments, fed once per injected fault, outside any
// simulation loop. Each injection also emits a "chaos.<fault>" event
// carrying the file name and the op index the fault landed on.
var (
	// chaosFaults counts injected faults (torn/short writes, ENOSPC,
	// failed fsyncs, bit-flips, latency), kill-points excluded.
	chaosFaults = telemetry.DeclareCounter("chaos.faults")
	// chaosKills counts kill-points fired (at most one per FS).
	chaosKills = telemetry.DeclareCounter("chaos.kills")
)
