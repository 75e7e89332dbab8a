package runner

import (
	"errors"

	"voltsmooth/internal/telemetry"
)

// The batch supervisor's instruments. They are fed from the same emit path
// that drives Config.OnEvent, so the two views of a campaign always agree,
// and observe only: they never change retry or scheduling decisions.
var (
	// runnerAttempts counts started attempts (first runs and retries
	// alike).
	runnerAttempts = telemetry.DeclareCounter("runner.attempts")
	// RunnerRetries counts attempts that failed with a retryable class and
	// were rescheduled.
	RunnerRetries = telemetry.DeclareCounter("runner.retries")
	// runnerStalls counts watchdog cancellations (retried or final).
	runnerStalls = telemetry.DeclareCounter("runner.stalls")
	// runnerAborts counts experiments ended by root-context cancellation.
	runnerAborts = telemetry.DeclareCounter("runner.aborts")
	// runnerFailures counts experiments that exhausted their attempts
	// (aborts excluded).
	runnerFailures = telemetry.DeclareCounter("runner.failures")
	// runnerCompleted counts experiments that finished successfully.
	runnerCompleted = telemetry.DeclareCounter("runner.completed")
	// RunnerInFlight tracks attempts currently executing.
	RunnerInFlight = telemetry.DeclareGauge("runner.inflight")
)

// observe translates one batch lifecycle event into metrics and one trace
// event per transition: runner.attempt / runner.retry / runner.stall /
// runner.abort / runner.fail / runner.done. Progress events are
// deliberately not traced — a full campaign completes tens of thousands of
// units, which would flush everything else out of the bounded ring; the
// experiments layer counts them instead.
func observe(ev Event) {
	switch ev.Kind {
	case EventStart:
		runnerAttempts.Inc()
		telemetry.Emit(telemetry.Event{Kind: "runner.attempt", ID: ev.ID, Attempt: ev.Attempt})
	case EventRetry:
		RunnerRetries.Inc()
		kind := "runner.retry"
		if errors.Is(ev.Err, ErrStalled) {
			runnerStalls.Inc()
			kind = "runner.stall"
		}
		telemetry.Emit(telemetry.Event{
			Kind:    kind,
			ID:      ev.ID,
			Attempt: ev.Attempt,
			Detail:  telemetry.FirstLine(ev.Err),
			Value:   ev.Backoff.Seconds(),
		})
	case EventDone:
		kind := "runner.done"
		switch {
		case ev.Err == nil:
			runnerCompleted.Inc()
		case errors.Is(ev.Err, ErrAborted):
			kind = "runner.abort"
			runnerAborts.Inc()
		default:
			kind = "runner.fail"
			if errors.Is(ev.Err, ErrStalled) {
				runnerStalls.Inc()
			}
			runnerFailures.Inc()
		}
		telemetry.Emit(telemetry.Event{Kind: kind, ID: ev.ID, Attempt: ev.Attempt, Detail: telemetry.FirstLine(ev.Err)})
	}
}
