// Package runner supervises long experiment campaigns: it executes a
// batch of experiments.Entry jobs under one root context with bounded
// concurrency, a per-experiment deadline, bounded retry with exponential
// backoff for transient failures, and a stall watchdog that cancels and
// requeues workers that stop making progress.
//
// The paper's full evaluation is hours of simulation (the 29×29 oracle
// pre-run alone is 841 multi-core runs); at that length interruptions are
// the norm, not the exception. The supervisor's contract is that one bad
// unit never takes the campaign down: a panicking experiment is recovered
// and retried, a stalled one is cancelled and retried, a cancelled
// campaign reports exactly which units finished — and, combined with the
// session journal, a rerun resumes from the completed units with
// bit-identical output.
//
// Every failure an experiment can produce is classified into exactly one
// of four sentinel errors, and retry policy is a function of the class
// alone:
//
//   - ErrTransient: recovered panics and per-attempt deadline overruns —
//     retried with backoff. Deterministic panics (impossible configs)
//     fail identically each time and promptly exhaust the small budget.
//   - ErrStalled: the watchdog saw no progress callback for the stall
//     window and cancelled the attempt — retried with backoff.
//   - ErrAborted: the root context was cancelled (user interrupt, global
//     timeout) — never retried; the campaign is shutting down.
//   - ErrPermanent: a cooperative abort with a non-cancellation cause
//     (an impossible configuration, a refused run) — never retried; the
//     condition does not heal on its own. (Journal write failures are no
//     longer in this class: the session degrades to journal-less
//     execution with a warning instead of aborting — see
//     experiments.Session.)
package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/parallel"
)

// The error taxonomy. Returned errors wrap one of these sentinels (test
// with errors.Is) and the underlying cause.
var (
	// ErrTransient marks a failure worth retrying: a recovered experiment
	// panic or a per-attempt deadline overrun.
	ErrTransient = errors.New("runner: transient failure")
	// ErrPermanent marks a failure retry cannot fix.
	ErrPermanent = errors.New("runner: permanent failure")
	// ErrStalled marks an attempt the watchdog cancelled for making no
	// progress within Config.StallTimeout.
	ErrStalled = errors.New("runner: stalled (no progress)")
	// ErrAborted marks an attempt cut short by root-context cancellation.
	ErrAborted = errors.New("runner: aborted")
)

// classified pairs a taxonomy sentinel with the underlying cause so both
// survive errors.Is/As chains.
type classified struct {
	class error
	cause error
}

func (e *classified) Error() string {
	return fmt.Sprintf("%v: %v", e.class, e.cause)
}

func (e *classified) Unwrap() []error { return []error{e.class, e.cause} }

// Config shapes a batch run.
type Config struct {
	// Workers bounds how many experiments run concurrently. <= 0 means
	// parallel.DefaultWorkers(). Note each experiment additionally fans
	// its own sweeps out over Session.Workers goroutines.
	Workers int
	// Timeout is the per-experiment, per-attempt deadline. 0 disables it.
	Timeout time.Duration
	// MaxAttempts bounds tries per experiment (first run + retries).
	// <= 0 means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax. Defaults: 500ms base, 8s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the backoff jitter. Two runs with equal seeds draw
	// identical jitter sequences per experiment ID.
	Seed int64
	// StallTimeout arms the watchdog: an attempt that reports no progress
	// (see experiments.WithProgress) for this long is cancelled and
	// classified ErrStalled. 0 disables the watchdog. Experiments report
	// progress per completed simulation run, so the window should be
	// generously larger than one run's wall time.
	StallTimeout time.Duration
	// OnEvent observes the batch's lifecycle. It may be called from many
	// goroutines concurrently; nil means no observation.
	OnEvent func(Event)
}

// DefaultMaxAttempts is the retry budget when Config.MaxAttempts is unset:
// the first attempt plus two retries.
const DefaultMaxAttempts = 3

// EventKind enumerates batch lifecycle events.
type EventKind int

const (
	// EventStart: an attempt began.
	EventStart EventKind = iota
	// EventProgress: the attempt reported a completed unit of work.
	EventProgress
	// EventRetry: the attempt failed with a retryable class; another
	// attempt follows after Event.Backoff.
	EventRetry
	// EventDone: the experiment finished (Event.Err nil on success).
	EventDone
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventProgress:
		return "progress"
	case EventRetry:
		return "retry"
	case EventDone:
		return "done"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observation of the batch's lifecycle.
type Event struct {
	Kind    EventKind
	ID      string // experiment ID
	Attempt int    // 1-based
	Unit    string // EventProgress: the completed unit's label
	Err     error  // EventRetry/EventDone: the classified failure
	Backoff time.Duration
}

// Result is one experiment's outcome.
type Result struct {
	ID       string
	Title    string
	Renderer experiments.Renderer // nil when Err != nil
	Err      error                // wraps a taxonomy sentinel; nil on success
	Attempts int
	Elapsed  time.Duration
}

// RunBatch executes the entries on the session under the root context and
// returns one Result per entry, in entry order. It always returns a
// result for every entry: entries never started because the root context
// was cancelled report ErrAborted. RunBatch itself returns ctx.Err() when
// the root context ended the campaign early, nil otherwise — per-
// experiment failures live in the Results, not in the returned error.
//
// The session's caches make sibling deduplication automatic: two entries
// sharing a corpus wait on one build. Before the first entry starts, the
// session is planned for the whole batch (Session.Plan), so a run
// population several entries read on different decap variants is built
// once for all of them. A watchdog or deadline cancelling one attempt
// does not poison the shared cache — aborted builds are evicted, and the
// retry rebuilds under its own live context.
func RunBatch(ctx context.Context, s *experiments.Session, entries []experiments.Entry, cfg Config) ([]Result, error) {
	s.Plan(entries)
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 8 * time.Second
	}

	results := make([]Result, len(entries))
	// Each worker pulls the next unstarted entry; a stalled or failed
	// experiment retries inside its own slot, so siblings keep flowing.
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) {
					return
				}
				results[i] = runOne(ctx, s, entries[i], cfg)
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}

// runOne drives one experiment through the attempt/classify/backoff loop.
func runOne(ctx context.Context, s *experiments.Session, e experiments.Entry, cfg Config) (res Result) {
	res = Result{ID: e.ID, Title: e.Title}
	// Jitter is seeded per experiment so a rerun of the same batch draws
	// the same backoff schedule regardless of worker interleaving.
	jitter := rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(e.ID))))
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()

	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		if err := ctx.Err(); err != nil {
			res.Err = &classified{class: ErrAborted, cause: err}
			emit(cfg, Event{Kind: EventDone, ID: e.ID, Attempt: attempt, Err: res.Err})
			return res
		}
		emit(cfg, Event{Kind: EventStart, ID: e.ID, Attempt: attempt})

		r, err := runAttempt(ctx, s, e, cfg, attempt)
		if err == nil {
			res.Renderer = r
			res.Err = nil
			emit(cfg, Event{Kind: EventDone, ID: e.ID, Attempt: attempt})
			return res
		}
		res.Err = err

		retryable := errors.Is(err, ErrTransient) || errors.Is(err, ErrStalled)
		if !retryable || attempt >= cfg.MaxAttempts {
			emit(cfg, Event{Kind: EventDone, ID: e.ID, Attempt: attempt, Err: err})
			return res
		}

		// Exponential backoff with full jitter: base·2^(attempt-1) scaled
		// by a uniform draw, capped. Storm-style transients (injected
		// fault bursts, contended machines) decorrelate across retries.
		backoff := time.Duration(float64(backoffFor(cfg.BackoffBase, cfg.BackoffMax, attempt)) * (0.5 + 0.5*jitter.Float64()))
		emit(cfg, Event{Kind: EventRetry, ID: e.ID, Attempt: attempt, Err: err, Backoff: backoff})
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			res.Err = &classified{class: ErrAborted, cause: ctx.Err()}
			emit(cfg, Event{Kind: EventDone, ID: e.ID, Attempt: attempt, Err: res.Err})
			return res
		}
	}
}

// backoffFor returns the pre-jitter exponential backoff for the 1-based
// attempt: base doubled once per prior attempt, monotonically capped at
// max. Doubling stops at the cap instead of shifting by the raw attempt
// count — a naive base<<(attempt-1) overflows past attempt ~40, wrapping
// into zero, negative, or arbitrary small positive sleeps, so a campaign
// with a huge retry budget would hammer instead of backing off.
func backoffFor(base, max time.Duration, attempt int) time.Duration {
	b := base
	for i := 1; i < attempt && b < max; i++ {
		b <<= 1
		if b <= 0 { // doubling overflowed: the cap was astronomically high
			return max
		}
	}
	if b > max {
		b = max
	}
	return b
}

// runAttempt executes a single attempt under its own deadline and
// watchdog, and classifies any failure.
func runAttempt(ctx context.Context, s *experiments.Session, e experiments.Entry, cfg Config, attempt int) (experiments.Renderer, error) {
	actx := ctx
	var cancelTimeout context.CancelFunc = func() {}
	if cfg.Timeout > 0 {
		actx, cancelTimeout = context.WithTimeout(actx, cfg.Timeout)
	}
	defer cancelTimeout()
	actx, cancelAttempt := context.WithCancel(actx)
	defer cancelAttempt()

	// The stall watchdog: every progress callback rearms the timer; if it
	// ever fires, the attempt is cancelled and the stalled flag decides
	// classification. The callback rides the attempt context, so a
	// cancelled attempt's stragglers cannot feed a successor's watchdog.
	var stalled atomic.Bool
	var watchdog *time.Timer
	if cfg.StallTimeout > 0 {
		watchdog = time.AfterFunc(cfg.StallTimeout, func() {
			stalled.Store(true)
			cancelAttempt()
		})
		defer watchdog.Stop()
	}
	actx = experiments.WithProgress(actx, func(unit string) {
		if watchdog != nil {
			watchdog.Reset(cfg.StallTimeout)
		}
		emit(cfg, Event{Kind: EventProgress, ID: e.ID, Attempt: attempt, Unit: unit})
	})

	if h := hooks.Load(); h != nil && h.InFlight != nil {
		h.InFlight.Add(1)
		defer h.InFlight.Add(-1)
	}
	r, err := s.Run(actx, e)
	if err == nil {
		return r, nil
	}
	return nil, &classified{class: classify(ctx, err, stalled.Load()), cause: err}
}

// classify maps an attempt failure to its taxonomy sentinel. root is the
// batch's root context: an error that merely reflects root cancellation is
// an abort no retry can outrun.
func classify(root context.Context, err error, stalled bool) error {
	switch {
	case root.Err() != nil:
		return ErrAborted
	case stalled:
		return ErrStalled
	case errors.Is(err, context.DeadlineExceeded):
		// The per-attempt deadline (the root's is covered above): the
		// machine may simply have been slow; retry.
		return ErrTransient
	case errors.Is(err, experiments.ErrExperimentPanicked):
		// Recovered panics are retried: the ones worth a retry budget
		// (injected-fault storms, resource blips) are transient, and the
		// deterministic ones fail identically and promptly exhaust it.
		return ErrTransient
	case errors.Is(err, context.Canceled):
		// Cancellation that is neither the root's nor the watchdog's:
		// the attempt context died for a reason we did not cause (a
		// sibling waiter's abort surfacing through a shared cache).
		return ErrTransient
	default:
		return ErrPermanent
	}
}

// hashID folds an experiment ID into a jitter-seed perturbation (FNV-1a).
func hashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

func emit(cfg Config, ev Event) {
	if cfg.OnEvent != nil {
		cfg.OnEvent(ev)
	}
	feedHooks(ev)
}

// Summary condenses a result set: counts per outcome class.
type Summary struct {
	Succeeded, Transient, Stalled, Aborted, Permanent int
}

// Summarize tallies results by outcome. A failed experiment counts under
// the class of its final error.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		switch {
		case r.Err == nil:
			s.Succeeded++
		case errors.Is(r.Err, ErrAborted):
			s.Aborted++
		case errors.Is(r.Err, ErrStalled):
			s.Stalled++
		case errors.Is(r.Err, ErrTransient):
			s.Transient++
		default:
			s.Permanent++
		}
	}
	return s
}
