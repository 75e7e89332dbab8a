package api

import (
	"time"

	"voltsmooth/internal/telemetry"
)

// The admission queue (DESIGN §13) is a priority queue with aging, not a
// FIFO channel: workers always pick the waiting job with the lowest
// EFFECTIVE rank, where a job's effective rank starts at its class's base
// rank (interactive=0, batch=1, bulk=2) and drops by one for every
// AgeAfter it has waited, clamped at 0. Ties break by queue seniority
// (enqueuedAt), then job ID — so within a rank the queue is FIFO, and a
// bulk job that has aged to rank 0 is ordered purely by how long it has
// waited. That bounds priority inversion: a bulk job is runnable ahead of
// fresh interactive arrivals after at most rankBulk*AgeAfter of waiting
// (the "aging budget" the overload soak asserts).
//
// The queue itself is a plain slice under Server.mu with an O(n) scan per
// pick: the queue is bounded by QueueCap (plus recovery/scanner headroom),
// and a pick happens once per job execution — dozens of entries, not
// thousands — so a heap would buy nothing but code.

// effectiveRank computes a queued job's rank at time now: base rank minus
// one per ageAfter waited, floored at 0. ageAfter <= 0 disables aging.
func effectiveRank(jb *job, now time.Time, ageAfter time.Duration) int {
	r := jb.rank()
	if ageAfter > 0 && !jb.enqueuedAt.IsZero() {
		if waited := now.Sub(jb.enqueuedAt); waited > 0 {
			r -= int(waited / ageAfter)
		}
	}
	if r < 0 {
		r = 0
	}
	return r
}

// pickBest returns the index of the job a worker should run next: minimum
// (effectiveRank, enqueuedAt, id). -1 on an empty queue. Pure function of
// its inputs so the aging property test can drive it with a fake clock.
func pickBest(queue []*job, now time.Time, ageAfter time.Duration) int {
	best := -1
	bestRank := 0
	for i, jb := range queue {
		r := effectiveRank(jb, now, ageAfter)
		if best < 0 {
			best, bestRank = i, r
			continue
		}
		switch {
		case r < bestRank:
			best, bestRank = i, r
		case r == bestRank:
			b := queue[best]
			if jb.enqueuedAt.Before(b.enqueuedAt) ||
				(jb.enqueuedAt.Equal(b.enqueuedAt) && jb.id < b.id) {
				best = i
			}
		}
	}
	return best
}

// enqueue appends jb to the priority queue and wakes a worker. Depth
// accounting belongs to the caller: admission reserved its slot before
// calling; the scanner and requeue go through push instead.
func (s *Server) enqueue(jb *job) {
	s.mu.Lock()
	s.queue = append(s.queue, jb)
	s.mu.Unlock()
	s.signalWork()
}

// push is the one guarded enqueue of admitted work, for the scanner and
// requeue: unless jb is queued, running or terminal, it appends jb and
// takes a depth slot WITHOUT a capacity check — shedding admitted work
// would lose an acked job. The caller holds s.mu and signals on true.
func (s *Server) push(jb *job) bool {
	jb.mu.Lock()
	ok := !jb.enqueued && !jb.state.terminal() && jb.state != StateRunning
	if ok {
		jb.enqueued = true
	}
	jb.mu.Unlock()
	if ok {
		s.queue = append(s.queue, jb)
		s.depth++
		apiQueueDepth.Set(int64(s.depth))
	}
	return ok
}

// signalWork hands one wake token to the worker pool. The token channel
// is sized past any realistic queue length, so the fast path is a
// non-blocking send; if it ever fills, a goroutine delivers the token
// rather than dropping it — a lost token would strand a queued job until
// the next unrelated enqueue.
func (s *Server) signalWork() {
	select {
	case s.wake <- struct{}{}:
	default:
		go func() {
			select {
			case s.wake <- struct{}{}:
			case <-s.stopPick:
			}
		}()
	}
}

// dequeue pops the best queued job. It returns (nil, true) when the
// server is draining — the worker should exit, leaving queued jobs
// durably on disk for the next boot — and (nil, false) on a spurious
// wakeup (token raced a pick, or the queue emptied by cancel).
func (s *Server) dequeue() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, true
	}
	i := pickBest(s.queue, s.now(), s.cfg.AgeAfter)
	if i < 0 {
		return nil, false
	}
	jb := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.depth--
	// Off the queue now: clear the flag so a later suspend can requeue. A
	// nomination before the run starts loses the local claim (exec.go).
	jb.mu.Lock()
	jb.enqueued = false
	jb.mu.Unlock()
	apiQueueDepth.Set(int64(s.depth))
	return jb, false
}

// maybePreempt runs after a job of base rank newRank was enqueued: when
// every worker slot is busy and some running job has a STRICTLY worse
// base rank, the worst such victim (latest-started among equals) gets a
// cooperative cancel flagged as preemption. The run unwinds at its next
// run boundary — the same mechanism drain uses — persists its journal
// checkpoint, and the job re-queues as suspended, resuming bit-identically
// on its next pick (on any worker: the victim's lease is released for
// requeue). Strict inequality means equal-rank work never churns, and an
// interactive job (rank 0) can never itself be preempted.
func (s *Server) maybePreempt(newRank int) {
	if !s.cfg.Preempt {
		return
	}
	s.mu.Lock()
	if len(s.running) < s.cfg.JobWorkers {
		s.mu.Unlock()
		return
	}
	var victim *job
	victimRank := newRank // must be strictly exceeded
	for _, r := range s.running {
		r.mu.Lock()
		eligible := r.state == StateRunning && !r.canceled && !r.preempted && r.cancel != nil
		started := r.started
		r.mu.Unlock()
		if !eligible {
			continue
		}
		rr := r.rank()
		if rr < victimRank {
			continue
		}
		if rr > victimRank || (victim != nil && started.After(victimStarted(victim))) {
			victim = r
			victimRank = rr
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return
	}

	victim.mu.Lock()
	// Re-check under the victim's lock: the run may have finished, been
	// cancelled, or already been preempted since the scan.
	if victim.state != StateRunning || victim.canceled || victim.preempted || victim.cancel == nil {
		victim.mu.Unlock()
		return
	}
	victim.preempted = true
	cancel := victim.cancel
	victim.mu.Unlock()

	victim.trace.Emit(telemetry.Event{Kind: "api.job.preempting", ID: victim.id,
		Detail: "higher-priority arrival; suspending at next run boundary"})
	s.logf("job %s: preempting (rank %d) for a rank-%d arrival", victim.id, victimRank, newRank)
	cancel()
}

func victimStarted(jb *job) time.Time {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.started
}

// requeue puts a suspended or parked job back on the queue. It runs after
// runJob's defers completed — the journal flock and the lease are already
// released, so by the time the job is pickable again, any worker or peer
// can claim it cleanly. The original enqueuedAt is preserved (the job ages
// from its admission wait, not from zero). push's guard keeps a racing
// scanner from double-enqueueing it; a DELETE that landed in the window
// leaves the job terminal and it is not requeued.
func (s *Server) requeue(jb *job) {
	s.mu.Lock()
	ok := s.push(jb)
	s.mu.Unlock()
	if ok {
		s.signalWork()
	}
}
