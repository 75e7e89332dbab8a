package api

import "voltsmooth/internal/telemetry"

// The service layer's process-wide instruments: fleet totals for
// GET /metrics. Per-job progress deliberately does NOT come from here — it
// is fed from job-scoped observers (see exec.go) so that concurrent jobs
// never bleed into each other; these are the accumulating process-wide
// view. Job lifecycle events go to each job's own ring, and api.* events
// to the installed trace, if any.
var (
	// apiJobsSubmitted counts POST /jobs requests that parsed and
	// validated.
	apiJobsSubmitted = telemetry.DeclareCounter("api.jobs_submitted")
	// apiJobsAdmitted counts submissions accepted into the queue (202).
	apiJobsAdmitted = telemetry.DeclareCounter("api.jobs_admitted")
	// apiJobsRejected counts submissions refused with 429 (quota or full
	// queue).
	apiJobsRejected = telemetry.DeclareCounter("api.jobs_rejected")
	// apiJobsUnavailable counts submissions refused with 503 (draining).
	apiJobsUnavailable = telemetry.DeclareCounter("api.jobs_unavailable")
	// apiJobsCompleted, apiJobsFailed and apiJobsCanceled count terminal
	// jobs by outcome.
	apiJobsCompleted = telemetry.DeclareCounter("api.jobs_completed")
	apiJobsFailed    = telemetry.DeclareCounter("api.jobs_failed")
	apiJobsCanceled  = telemetry.DeclareCounter("api.jobs_canceled")
	// apiJobsRecovered counts unfinished jobs re-enqueued by boot-time
	// recovery.
	apiJobsRecovered = telemetry.DeclareCounter("api.jobs_recovered")
	// apiCacheHits counts jobs served from a durable cross-tenant cache
	// entry that existed when they arrived; apiCacheFollowed counts jobs
	// served from an entry whose execution was still in flight then;
	// apiCacheMisses counts executions that checked the cache and ran;
	// apiCacheEvicted counts entries removed by the CacheMax bound.
	apiCacheHits     = telemetry.DeclareCounter("api.cache_hits")
	apiCacheMisses   = telemetry.DeclareCounter("api.cache_misses")
	apiCacheFollowed = telemetry.DeclareCounter("api.cache_followed")
	apiCacheEvicted  = telemetry.DeclareCounter("api.cache_evicted")
	// apiSSEStreams counts /jobs/{id}/events event-stream connections.
	apiSSEStreams = telemetry.DeclareCounter("api.sse_streams")
	// apiSSEDropped counts event-stream watchers dropped because the
	// client stalled past the per-frame write deadline (slow-consumer
	// shedding).
	apiSSEDropped = telemetry.DeclareCounter("api.sse_dropped")
	// apiJobsPreempted counts runs suspended at a run boundary to yield
	// their worker slot to a higher-priority arrival.
	apiJobsPreempted = telemetry.DeclareCounter("api.jobs_preempted")
	// apiJobsShed counts bulk submissions refused 429 past the shed
	// watermark.
	apiJobsShed = telemetry.DeclareCounter("api.jobs_shed")
	// apiJobsDeadlineInfeasible counts jobs failed fast because their
	// deadline could no longer be met.
	apiJobsDeadlineInfeasible = telemetry.DeclareCounter("api.jobs_deadline_infeasible")
	// apiQueueDepth tracks jobs waiting in the admission queue.
	apiQueueDepth = telemetry.DeclareGauge("api.queue_depth")
	// apiJobsRunning tracks jobs currently executing.
	apiJobsRunning = telemetry.DeclareGauge("api.jobs_running")
	// apiDraining is 1 while the server refuses new work during shutdown.
	apiDraining = telemetry.DeclareGauge("api.draining")
)
