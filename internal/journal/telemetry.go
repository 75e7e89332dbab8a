package journal

import "voltsmooth/internal/telemetry"

// The journal's instruments. They are fed per record (append or replay),
// after the record is durably flushed, and observe only: what the journal
// writes and replays is bit-identical whether they are bound or not. Each
// durable record also emits a "journal.append" event, and a journal that
// poisons itself a "journal.failed" event.
var (
	// journalAppends counts records durably written by Record.
	journalAppends = telemetry.DeclareCounter("journal.appends")
	// journalReplays counts LookupInto hits — units served from the
	// journal instead of being recomputed.
	journalReplays = telemetry.DeclareCounter("journal.replays")
	// journalFailures counts journals poisoned by a failed
	// write/flush/fsync (at most one per journal: the poison is sticky).
	journalFailures = telemetry.DeclareCounter("journal.failures")
)
