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
// (the admission time, which no requeue changes), then job ID — so within
// a rank the queue is FIFO, and a bulk job that has aged to rank 0 is
// ordered purely by how long it has waited. That bounds priority
// inversion: a bulk job is runnable ahead of fresh interactive arrivals
// after at most rankBulk*AgeAfter of waiting (the "aging budget" the
// overload soak asserts).
//
// The queue itself is a plain slice under Server.mu with an O(n) scan per
// pick: the queue is bounded by QueueCap (plus recovery/scanner headroom),
// and a pick happens once per job execution — dozens of entries, not
// thousands — so a heap would buy nothing but code. Idle workers wait on
// Server.work, which every enqueue signals.

// effectiveRank computes a queued job's rank at time now: base rank minus
// one per ageAfter waited, floored at 0. ageAfter <= 0 disables aging.
func effectiveRank(jb *job, now time.Time, ageAfter time.Duration) int {
	r := jb.rank()
	if ageAfter > 0 && !jb.created.IsZero() {
		if waited := now.Sub(jb.created); waited > 0 {
			r -= int(waited / ageAfter)
		}
	}
	if r < 0 {
		r = 0
	}
	return r
}

// pickBest returns the index of the job a worker should run next: minimum
// (effectiveRank, created, id). -1 on an empty queue. Pure function of
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
			if jb.created.Before(b.created) ||
				(jb.created.Equal(b.created) && jb.id < b.id) {
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
	s.work.Signal()
	s.mu.Unlock()
}

// push is the one guarded enqueue of admitted work, for the scanner and
// requeue: unless jb is queued, running or terminal, it appends jb, takes
// a depth slot WITHOUT a capacity check — shedding admitted work would
// lose an acked job — and wakes a worker. The caller holds s.mu.
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
		s.work.Signal()
	}
	return ok
}

// dequeue waits until the queue holds a job and pops the best one. It
// returns nil once the server is draining — the worker should exit,
// leaving queued jobs durably on disk for the next boot.
func (s *Server) dequeue() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && len(s.queue) == 0 {
		s.work.Wait()
	}
	if s.draining {
		return nil
	}
	i := pickBest(s.queue, time.Now(), s.cfg.AgeAfter)
	jb := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.depth--
	// Off the queue now: clear the flag so a later suspend can requeue. A
	// nomination before the run starts loses the local claim (exec.go).
	jb.mu.Lock()
	jb.enqueued = false
	jb.mu.Unlock()
	apiQueueDepth.Set(int64(s.depth))
	return jb
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
	busy := 0
	var victim *job
	var victimStarted time.Time
	victimRank := newRank // must be strictly exceeded
	s.mu.Lock()
	for _, r := range s.jobs {
		r.mu.Lock()
		running := r.cancel != nil // in a runJob of this process's pool
		eligible := running && r.state == StateRunning && !r.canceled && !r.preempted
		started := r.started
		r.mu.Unlock()
		if running {
			busy++
		}
		if !eligible {
			continue
		}
		rr := r.rank()
		if rr < victimRank {
			continue
		}
		if rr > victimRank || (victim != nil && started.After(victimStarted)) {
			victim, victimStarted, victimRank = r, started, rr
		}
	}
	s.mu.Unlock()
	if victim == nil || busy < s.cfg.JobWorkers {
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

// requeue puts a suspended or parked job back on the queue. It runs after
// runJob's defers completed — the journal flock and the lease are already
// released, so by the time the job is pickable again, any worker or peer
// can claim it cleanly. The job keeps its seniority (it ages from its
// admission, not from zero). push's guard keeps a racing scanner from
// double-enqueueing it; a DELETE that landed in the window leaves the job
// terminal and it is not requeued.
func (s *Server) requeue(jb *job) {
	s.mu.Lock()
	s.push(jb)
	s.mu.Unlock()
}
