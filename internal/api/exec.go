package api

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/telemetry"
)

// runJob executes one job end to end: open (or resume) its journal, run
// its experiments on the batch supervisor, classify the outcome, and
// persist the terminal result atomically. Progress and events are fed
// exclusively from job-scoped observers — the job's own runner.OnEvent
// closure and its own journal's OnReplay hook — never from the
// process-wide telemetry instruments, so concurrent jobs cannot bleed into
// each other's counters. It reports whether the job stepped back behind an
// identical in-flight job; the worker loop then parks it.
func (s *Server) runJob(jb *job) (follows bool) {
	if s.cfg.BeforeJob != nil {
		s.cfg.BeforeJob(jb.id)
	}

	jb.mu.Lock()
	terminal := jb.state.terminal()
	jb.mu.Unlock()
	if terminal {
		// Canceled while queued (DELETE wrote the result already), or a
		// peer's result adopted. Nothing to run.
		return
	}

	// Ownership first. The claim transaction under the lease flock is the
	// only admission to execution; losing it (a peer's live lease, a busy
	// lock, a local DELETE) just sends the job back to the scanner.
	hold, err := s.claim(jb)
	if err != nil {
		if errors.Is(err, lease.ErrHeld) || errors.Is(err, lease.ErrLockBusy) || errors.Is(err, errClaimedHere) {
			jb.trace.Emit(telemetry.Event{Kind: "api.job.claim_lost", ID: jb.id, Detail: telemetry.FirstLine(err)})
		} else {
			s.logf("job %s: claim: %v", jb.id, err)
		}
		// A suspended job whose resume lost the claim race (a peer is
		// already resuming it) steps back to queued — the worker loop
		// only requeues suspended jobs, and a hot requeue here would spin
		// against the peer's lease until it finished.
		jb.mu.Lock()
		if jb.state == StateSuspended {
			jb.state = StateQueued
		}
		jb.mu.Unlock()
		return
	}
	defer func() {
		// A suspension releases "for requeue": the reason lands in the
		// lease history, and the released lease is what lets ANY worker on
		// the store (not just this one) resume the suspended job.
		reason := ""
		jb.mu.Lock()
		if jb.state == StateSuspended {
			reason = "preempted"
		}
		jb.mu.Unlock()
		s.release(jb, reason)
	}()
	s.logf("job %s: claimed (epoch %d)", jb.id, hold.Epoch())

	// The claim may have raced a peer's terminal write that landed just
	// before our transaction: a result on disk means the job is done, not
	// ours to re-run.
	if res, err := s.store.LoadResult(jb.id); err == nil {
		s.adoptResult(jb, res)
		return
	}
	if jb.isCanceled() {
		s.finishJob(jb, StateCanceled, "canceled before start", nil, nil)
		return
	}

	if s.cacheEnabled() {
		// Cross-tenant dedup (DESIGN §12). First the durable cache: an
		// identical campaign already finished somewhere — serve its renders
		// as this job's terminal result (through the lease fence:
		// finishFromCache routes the write via commitResult/Guard).
		if e := s.cacheLookup(jb.fingerprint); e != nil {
			s.finishFromCache(jb, e)
			return
		}
		// Then the in-flight population: while a lower-ID live job carries
		// this fingerprint (every worker computes the same leader from its
		// store mirror), this job steps back instead of executing. Its next
		// pick, after that job's terminal transition, reads the finished
		// job's cache entry, or finds itself the leader if there is none.
		if l := s.dedupLeader(jb.fingerprint); l != nil && l != jb {
			jb.setState(StateQueued, "following identical in-flight job "+l.id)
			return true
		}
		apiCacheMisses.Inc()
	}

	// Deadline feasibility (DESIGN §13): a job whose absolute deadline has
	// passed — or that hasn't produced a single unit yet and whose
	// remaining budget is smaller than the average job — fails fast here
	// instead of burning a worker slot on a run that cannot complete.
	if !jb.deadline.IsZero() {
		remaining := time.Until(jb.deadline)
		s.mu.Lock()
		avg := s.avgJobDur
		s.mu.Unlock()
		fresh := jb.prog.units.Load() == 0
		if remaining <= 0 || (fresh && avg > 0 && remaining < avg) {
			apiJobsDeadlineInfeasible.Inc()
			s.finishJob(jb, StateFailed, fmt.Sprintf("%v (remaining %s, average job %s)",
				ErrDeadlineInfeasible, remaining.Round(time.Millisecond), avg.Round(time.Millisecond)), nil, nil)
			return
		}
	}

	ctx, cancel := context.WithCancel(s.jobsCtx)
	defer cancel()
	timeout := s.cfg.DefaultTimeout
	if jb.spec.TimeoutMS > 0 {
		timeout = time.Duration(jb.spec.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		defer tcancel()
	}
	if !jb.deadline.IsZero() {
		// The spec deadline propagates into the run itself: when it fires
		// mid-run the job unwinds at its next boundary and fails, journal
		// intact.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, jb.deadline)
		defer dcancel()
	}

	jb.mu.Lock()
	jb.cancel = cancel
	jb.started = time.Now()
	if jb.canceled {
		// A DELETE accepted since the claim found no run to cancel yet.
		cancel()
	}
	jb.mu.Unlock()
	// The job holds its worker slot (maybePreempt counts it busy) until
	// this frame has closed its journal.
	defer func() {
		jb.mu.Lock()
		jb.cancel = nil
		jb.mu.Unlock()
	}()
	jb.setState(StateRunning, "")
	apiJobsRunning.Add(1)
	defer apiJobsRunning.Add(-1)

	// Heartbeat: renew the lease on job progress until the run ends or the
	// lease is fenced — the signal that a successor owns the job and this
	// run must abandon everything, terminal write included.
	go hold.Keep(ctx, 0, jb.prog.units.Load, func(err error) {
		s.logf("job %s: %v; abandoning run", jb.id, err)
		jb.mu.Lock()
		jb.fenced = true
		jb.mu.Unlock()
		cancel()
	})

	// A fenced predecessor may still hold the journal flock (a paused
	// process keeps its descriptors). Our lease is live and renewing, so
	// wait the holder out briefly; past the budget, hand the job back
	// rather than camp on a queue worker.
	sess, jnl, err := s.openSession(jb)
	deadline := time.Now().Add(4 * s.cfg.LeaseTTL)
	for errors.Is(err, journal.ErrLocked) && ctx.Err() == nil {
		if time.Now().After(deadline) {
			s.logf("job %s: journal still locked by another process after %s; requeueing", jb.id, 4*s.cfg.LeaseTTL)
			jb.setState(StateQueued, "journal locked by another process")
			return
		}
		// Wait the holder out without going deaf to cancellation: a
		// drain, fence, or DELETE must interrupt this wait immediately,
		// not after another sleep-and-reopen round.
		select {
		case <-ctx.Done():
		case <-time.After(250 * time.Millisecond):
			sess, jnl, err = s.openSession(jb)
		}
	}
	if err != nil {
		if ctx.Err() != nil && jb.isCanceled() {
			// A DELETE landed while the journal was still locked (or while
			// opening): that is a cancel, not a job failure.
			s.finishJob(jb, StateCanceled, "canceled while opening journal", nil, nil)
			return
		}
		if ctx.Err() != nil {
			// Fenced or drained while waiting on the journal lock: not a
			// job failure. Leave it queued for whoever owns it next.
			jb.setState(StateQueued, "interrupted before journal open")
			return
		}
		s.finishJob(jb, StateFailed, fmt.Sprintf("open journal: %v", err), nil, nil)
		return
	}
	defer func() {
		if cerr := jnl.Close(); cerr != nil && !errors.Is(cerr, journal.ErrJournalFailed) {
			s.logf("job %s: close journal: %v", jb.id, cerr)
		}
	}()

	entries := make([]experiments.Entry, 0, len(jb.spec.Experiments))
	for _, id := range jb.spec.Experiments {
		e, err := experiments.Lookup(id)
		if err != nil {
			// Validate() checked this at admission; a recovered job from a
			// newer build could still miss.
			s.finishJob(jb, StateFailed, err.Error(), nil, nil)
			return
		}
		entries = append(entries, e)
	}

	results, runErr := runner.RunBatch(ctx, sess, entries, runner.Config{
		// One slot: the job's concurrency lives in the session sweep
		// fan-out; jobs are the server-level unit of parallelism.
		Workers:      1,
		Timeout:      s.cfg.ExpTimeout,
		MaxAttempts:  s.cfg.Retries,
		Seed:         jb.spec.Seed,
		StallTimeout: s.cfg.StallTimeout,
		OnEvent:      s.jobObserver(jb),
	})

	renders := map[string]string{}
	attempts := map[string]int{}
	var failed []string
	for _, r := range results {
		attempts[r.ID] = r.Attempts
		if r.Err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", r.ID, telemetry.FirstLine(r.Err)))
			continue
		}
		renders[r.ID] = r.Renderer.Render()
	}

	switch {
	case jb.isFenced():
		// A successor claimed the job while this run was paused or stalled.
		// Nothing here may be persisted — the successor's run is the truth.
		// Revert to queued; the scanner adopts the successor's result.
		jb.setState(StateQueued, "lease fenced; a successor owns this job")
		s.logf("job %s: fenced after %d units; discarding this run's outcome", jb.id, jb.prog.units.Load())
	case runErr != nil && errors.Is(s.jobsCtx.Err(), context.Canceled) && !jb.isCanceled():
		// The server is shutting down, not the job failing: revert to
		// queued. No result.json is written, so the next boot re-enqueues
		// the job and its journal resumes every completed unit.
		jb.setState(StateQueued, "server shutdown; will resume from journal")
		s.logf("job %s: interrupted by shutdown after %d units; resumable", jb.id, jb.prog.units.Load())
	case jb.isCanceled():
		s.finishJob(jb, StateCanceled, "canceled", renders, attempts)
	case runErr != nil && jb.isPreempted():
		// Preempted by a higher-priority arrival: the run unwound at a run
		// boundary with its journal checkpoint intact. Suspend — not
		// terminal, no result.json — and let the worker loop requeue it
		// (after this frame's defers release the lease, so a peer may just
		// as well resume it). The journal must be healthy for the resume
		// to replay; a poisoned one still resumes, it just re-executes
		// (the same degradation crash recovery accepts).
		jb.mu.Lock()
		jb.preempted = false
		jb.preemptions++
		n := jb.preemptions
		jb.mu.Unlock()
		jb.setState(StateSuspended, "preempted; checkpoint kept, will resume")
		apiJobsPreempted.Inc()
		s.logf("job %s: suspended after %d units (preemption #%d, journal %s)",
			jb.id, jb.prog.units.Load(), n, jnl.Status())
	case runErr != nil:
		s.finishJob(jb, StateFailed, fmt.Sprintf("deadline: %v", runErr), renders, attempts)
	case len(failed) > 0:
		s.finishJob(jb, StateFailed, fmt.Sprintf("%d/%d experiments failed: %v", len(failed), len(results), failed), renders, attempts)
	default:
		s.finishJob(jb, StateDone, "", renders, attempts)
	}
	return false
}

// openSession opens the job's config-hash-pinned journal (creating or
// resuming — Resume is always set, because a fresh file and a crash
// leftover are the same call) and builds the experiment session over it.
func (s *Server) openSession(jb *job) (*experiments.Session, *journal.Journal, error) {
	scale, err := experiments.ScaleByName(jb.spec.Scale)
	if err != nil {
		return nil, nil, err
	}
	sess := experiments.NewSession(scale)
	sess.Workers = jb.spec.Workers
	if sess.Workers <= 0 {
		sess.Workers = s.cfg.DefaultSessionWorkers
	}
	sess.FaultClasses = jb.spec.FaultClasses
	sess.FaultSeed = jb.spec.FaultSeed
	sess.Warn = func(format string, args ...any) {
		s.logf("job %s: "+format, append([]any{jb.id}, args...)...)
		jb.trace.Emit(telemetry.Event{Kind: "api.job.warn", ID: jb.id, Detail: fmt.Sprintf(format, args...)})
	}

	jnl, err := journal.Open(s.store.JournalPath(jb.id), sess.ConfigFingerprint(), journal.Options{
		Resume:    true,
		FS:        s.cfg.FS,
		SyncEvery: 1, // every record: a server must survive machine crashes
		Warn:      sess.Warn,
	})
	if err != nil {
		return nil, nil, err
	}
	// Replays are observed through the journal's own job-scoped hook, so a
	// sibling job's replay traffic never lands in this job's counters. A
	// replayed unit is also reported as progress, which counts it in Units.
	jnl.OnReplay = func(key string) {
		jb.prog.replayed.Add(1)
		jb.notify()
	}
	resumed := jnl.Len()
	jb.mu.Lock()
	jb.resumedUnits = resumed
	jb.mu.Unlock()
	if resumed > 0 {
		jb.trace.Emit(telemetry.Event{Kind: "api.job.resume", ID: jb.id, Value: float64(resumed),
			Detail: fmt.Sprintf("%d checkpointed units available for replay", resumed)})
	}
	sess.Journal = jnl
	return sess, jnl, nil
}

// jobObserver adapts the runner's event stream of one run into this job's
// scoped progress counters and event ring. Every completed unit arrives as
// progress, replayed ones too (the journal's OnReplay hook only counts the
// replays).
func (s *Server) jobObserver(jb *job) func(runner.Event) {
	var units atomic.Uint64 // this run's units
	return func(ev runner.Event) {
		switch ev.Kind {
		case runner.EventStart:
			jb.prog.attempts.Add(1)
			jb.trace.Emit(telemetry.Event{Kind: "run.start", ID: ev.ID, Value: float64(ev.Attempt)})
		case runner.EventProgress:
			jb.prog.raiseUnits(units.Add(1))
		case runner.EventRetry:
			jb.prog.retries.Add(1)
			jb.trace.Emit(telemetry.Event{Kind: "run.retry", ID: ev.ID, Value: float64(ev.Attempt),
				Detail: telemetry.FirstLine(ev.Err)})
		case runner.EventDone:
			if ev.Err == nil {
				jb.prog.expDone.Add(1)
				jb.trace.Emit(telemetry.Event{Kind: "run.done", ID: ev.ID, Detail: "ok"})
			} else {
				jb.trace.Emit(telemetry.Event{Kind: "run.done", ID: ev.ID, Detail: telemetry.FirstLine(ev.Err)})
			}
		}
		// Every observer event is an SSE tick; watchers coalesce, so this
		// is one non-blocking send per unit, not a queue.
		jb.notify()
	}
}

// isCanceled reports whether a cancel was requested for the job.
func (j *job) isCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// errClaimedHere refuses a claim while another actor of this process — the
// worker running the job, or a DELETE canceling it — holds its lease.
var errClaimedHere = errors.New("lease held by this process")

// claim takes jb's lease for one local actor at a time: the protocol lets
// a worker re-claim its own lease, so a second local claim would fence the
// first. The handle is kept as jb.hold, which commitResult writes under.
func (s *Server) claim(jb *job) (*lease.Handle, error) {
	jb.mu.Lock()
	if jb.claimed {
		jb.mu.Unlock()
		return nil, errClaimedHere
	}
	jb.claimed = true
	jb.mu.Unlock()
	h, err := s.leases.Claim(s.store.jobDir(jb.id), jb.id)
	jb.mu.Lock()
	jb.claimed = err == nil
	jb.hold = h
	jb.fenced = false
	jb.mu.Unlock()
	return h, err
}

// release gives back the lease claim took ("preempted" marks a suspension
// released for any worker to resume) and frees the job's local claim.
func (s *Server) release(jb *job, reason string) {
	jb.mu.Lock()
	h := jb.hold
	jb.mu.Unlock()
	if err := h.ReleaseFor(reason); err != nil && !errors.Is(err, lease.ErrFenced) {
		s.logf("job %s: release lease: %v (peers take over at TTL expiry)", jb.id, err)
	}
	jb.mu.Lock()
	jb.claimed, jb.hold = false, nil
	jb.mu.Unlock()
}

// finishJob builds a terminal result from the job's own run and commits
// it (persist + transition) via commitResult. A job already finished (e.g.
// a DELETE landed while this run was starting) keeps its first result.
func (s *Server) finishJob(jb *job, state JobState, errMsg string, renders map[string]string, attempts map[string]int) {
	res := &Result{
		State:    state,
		Error:    errMsg,
		Renders:  renders,
		Attempts: attempts,
		Units:    jb.prog.units.Load(),
	}
	if jb.stamp(res) {
		s.commitResult(jb, res)
	}
}

// commitResult persists a terminal result (atomically — its presence is
// the terminal marker recovery trusts), publishes completed executions to
// the cross-tenant result cache, transitions the job, and requeues the
// jobs parked on its fingerprint. The result AND the cache entry are
// written inside the lease Guard: both commit only while the claim flock
// is held and the on-disk epoch still matches, so a stale fenced worker
// can neither overwrite the successor's result nor poison the cache. The
// one terminal write without a lease is an admission-time cache hit,
// whose job no worker has claimed.
func (s *Server) commitResult(jb *job, res *Result) {
	jb.mu.Lock()
	hold := jb.hold
	jb.mu.Unlock()

	publish := func() error {
		if err := s.store.WriteResult(res); err != nil {
			return err
		}
		if res.State == StateDone && !res.Cached && s.cacheEnabled() && jb.fingerprint != "" {
			entry := &CacheEntry{
				Fingerprint:   jb.fingerprint,
				SourceJob:     jb.id,
				Renders:       res.Renders,
				Attempts:      res.Attempts,
				Units:         res.Units,
				CreatedUnixNS: res.FinishedUnixNS,
			}
			if err := s.store.WriteCached(entry); err != nil {
				// The cache is an optimization: a failed publish costs later
				// identical specs a re-execution, never correctness.
				s.logf("job %s: cache publish: %v (identical specs will re-run)", jb.id, err)
			} else if n, err := s.store.EvictCachedOver(s.cfg.CacheMax); err != nil {
				s.logf("cache: evict: %v", err)
			} else if n > 0 {
				apiCacheEvicted.Add(uint64(n))
			}
		}
		return nil
	}
	var werr error
	if hold != nil {
		werr = hold.Guard(publish)
		if errors.Is(werr, lease.ErrFenced) {
			s.logf("job %s: terminal write REJECTED by fence: %v", jb.id, werr)
			jb.mu.Lock()
			jb.fenced = true
			jb.result = nil
			jb.mu.Unlock()
			jb.setState(StateQueued, "terminal write fenced; successor owns the job")
			return
		}
	} else {
		werr = publish()
	}
	if werr != nil {
		// The run is complete in memory but not durably terminal: the next
		// boot will re-run it, and the journal will replay it bit-
		// identically — wasteful, not wrong.
		s.logf("job %s: persist result: %v (job will re-run on next boot)", jb.id, werr)
	}
	jb.setState(res.State, res.Error)
	switch res.State {
	case StateDone:
		apiJobsCompleted.Inc()
	case StateFailed:
		apiJobsFailed.Inc()
	case StateCanceled:
		apiJobsCanceled.Inc()
	}
	s.observeDuration(res)
	s.logf("job %s: %s (%d units, %d replayed)", jb.id, res.State, jb.prog.units.Load(), jb.prog.replayed.Load())
	s.unpark(jb.fingerprint)
}

// observeDuration folds an executed (non-cached) job's wall-clock into
// the EWMA the queue-full Retry-After derivation reads.
func (s *Server) observeDuration(res *Result) {
	if res.Cached || res.StartedUnixNS == 0 || res.FinishedUnixNS <= res.StartedUnixNS {
		return
	}
	d := time.Duration(res.FinishedUnixNS - res.StartedUnixNS)
	s.mu.Lock()
	if s.avgJobDur == 0 {
		s.avgJobDur = d
	} else {
		s.avgJobDur = (s.avgJobDur + d) / 2
	}
	s.mu.Unlock()
}
