package experiments

import "voltsmooth/internal/telemetry"

// The session's instruments. They are fed per completed experiment and per
// completed measurement unit (a corpus run), never inside a simulation
// loop, and observe only: every figure and journal byte is bit-identical
// whether they are bound or not. Each Session.Run also emits "exp.start"
// and "exp.done" events.
var (
	// expCompleted counts completed Session.Run calls (failures included).
	expCompleted = telemetry.DeclareCounter("exp.completed")
	// ExpUnits counts corpus runs: each run a corpus folds counts once,
	// whether the corpus build measured it, replayed it from the journal,
	// or shares it with a consumer that built it first (the oracle table
	// reads the multi-program runs and fig15 the Proc3 single-threaded
	// runs, and another variant's corpus may have built it as a lane of
	// the same chip run). A shared run counts as it completes when the
	// corpus is the one building it, and when the corpus reads it
	// otherwise. Oracle-table cells, shared pair runs included, are
	// counted by sched.SchedCells.
	ExpUnits = telemetry.DeclareCounter("exp.units")
	// ExpEmergencies accumulates each corpus run's margin crossings at the
	// paper's characterization margin (core.PhaseMargin) — the campaign's
	// running "emergencies so far" figure.
	ExpEmergencies = telemetry.DeclareCounter("exp.emergencies")
	// expWallMS observes each experiment's wall-clock duration.
	expWallMS = telemetry.DeclareTiming("exp.wall_ms")
)
