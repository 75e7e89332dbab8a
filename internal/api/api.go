// Package api is the campaign service layer: a multi-tenant HTTP/JSON
// front end over the batch supervisor (internal/runner), the checkpoint
// store (internal/journal), and the experiment session cache
// (internal/experiments). It turns the mortal CLI campaign into a
// long-lived server: clients submit campaign jobs, the server admits them
// through per-client token quotas and a bounded queue with explicit
// backpressure (429 + Retry-After when full, never unbounded buffering),
// executes them on a worker pool with per-job deadlines and the
// established retry/backoff taxonomy, and streams per-job progress and an
// event trace while they run.
//
// Every job owns a config-hash-pinned journal file in the job store and
// runs under a durable lease, so a crashed or SIGKILLed server recovers on
// restart by scanning the store: jobs with a persisted result are served
// as-is, jobs without one resume from their journal once their lease is
// free, replaying finished units bit-identically — the CLI's -resume.
//
// The job lifecycle state machine (DESIGN §10, §13):
//
//	submit ─► queued ─► running ─► done
//	             │          │    ─► failed
//	             │          │    ─► canceled
//	             │          ├─► suspended ─► queued  (preempted by a higher-
//	             │          │                         priority job; resumes
//	             │          │                         from its journal)
//	             │          └─► queued        (server shutdown / crash;
//	             └─► canceled                  re-enqueued by the scanner)
//
// Progress is scoped strictly per job: counters are fed from the job's
// own runner events and its own journal's replay observer, never from the
// process-wide telemetry instruments — so two jobs' progress never bleed
// into each other, while the installed registry still accumulates process
// totals for /metrics.
package api

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/telemetry"
)

// ErrDeadlineInfeasible reports a job failed fast because it could no
// longer meet its spec deadline: either the deadline already passed while
// the job waited in the queue, or the remaining budget is smaller than the
// server's average job duration. The job's worker slot is never spent on
// a run that cannot complete in time.
var ErrDeadlineInfeasible = errors.New("deadline infeasible: job cannot finish before its deadline")

// JobState enumerates the lifecycle states.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	// StateSuspended marks a job preempted at a run boundary by a
	// higher-priority arrival: its journal holds every completed unit, it
	// sits back on the priority queue (keeping its original admission
	// seniority), and its next pick resumes it bit-identically. NOT
	// terminal — a suspended job always runs again.
	StateSuspended JobState = "suspended"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the client-submitted description of one campaign job. The
// zero values of the optional fields mean "server default".
type JobSpec struct {
	// Experiments lists the experiment IDs to run (see experiments.All),
	// or the single element "all".
	Experiments []string `json:"experiments"`
	// Scale names the experiment scale: tiny|quick|full.
	Scale string `json:"scale"`
	// Workers bounds the job's measurement-sweep fan-out; results are
	// bit-identical at any width. <= 0 means the server default.
	Workers int `json:"workers,omitempty"`
	// FaultClasses/FaultSeed configure the figx-recovery fault injection,
	// exactly like the CLI's -inject/-inject-seed.
	FaultClasses []string `json:"fault_classes,omitempty"`
	FaultSeed    uint64   `json:"fault_seed,omitempty"`
	// Seed drives the runner's retry-backoff jitter.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS is the whole-job deadline in milliseconds; 0 means the
	// server default (which may be "none").
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority names the job's scheduling class: interactive|batch|bulk.
	// Empty means batch. Interactive jobs jump the queue and may preempt
	// running bulk/batch work; bulk jobs yield to everything but are aged
	// toward the front so they can be delayed, never starved (DESIGN §13).
	Priority string `json:"priority,omitempty"`
	// DeadlineMS is a wall-clock completion deadline in milliseconds from
	// admission; 0 means none. Unlike TimeoutMS (which bounds one
	// execution), the deadline is absolute: queue wait counts against it,
	// and a job that can no longer meet it fails fast with
	// ErrDeadlineInfeasible instead of burning a worker slot.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Priority classes, ordered by rank: lower rank runs first.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
	PriorityBulk        = "bulk"

	rankInteractive = 0
	rankBatch       = 1
	rankBulk        = 2
)

// priorityRank maps a (validated) priority class to its base rank.
func priorityRank(p string) int {
	switch p {
	case PriorityInteractive:
		return rankInteractive
	case PriorityBulk:
		return rankBulk
	default: // "", "batch"
		return rankBatch
	}
}

// rank is the job's base scheduling rank (before aging).
func (j *job) rank() int { return priorityRank(j.spec.Priority) }

// maxJobWorkers bounds a single job's sweep fan-out: one tenant must not
// be able to claim every core of a shared fleet worker.
const maxJobWorkers = 64

// Validate checks the spec against the experiment registry, expands
// "all" and drops repeated experiment IDs, keeping the order of their
// first occurrences. It returns the normalized spec; a validation error
// reads like a flag error and maps to HTTP 400.
func (s JobSpec) Validate() (JobSpec, error) {
	if len(s.Experiments) == 0 {
		return s, fmt.Errorf("spec: experiments must name at least one experiment id (or \"all\")")
	}
	if len(s.Experiments) == 1 && s.Experiments[0] == "all" {
		s.Experiments = nil
		for _, e := range experiments.All() {
			s.Experiments = append(s.Experiments, e.ID)
		}
	}
	ids := make([]string, 0, len(s.Experiments))
	for _, id := range s.Experiments {
		if _, err := experiments.Lookup(id); err != nil {
			return s, fmt.Errorf("spec: %w", err)
		}
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	s.Experiments = ids
	if s.Scale == "" {
		s.Scale = "tiny"
	}
	if _, err := experiments.ScaleByName(s.Scale); err != nil {
		return s, fmt.Errorf("spec: %w", err)
	}
	if s.Workers < 0 || s.Workers > maxJobWorkers {
		return s, fmt.Errorf("spec: workers must be in [0, %d], got %d", maxJobWorkers, s.Workers)
	}
	if s.TimeoutMS < 0 {
		return s, fmt.Errorf("spec: timeout_ms must be non-negative, got %d", s.TimeoutMS)
	}
	switch s.Priority {
	case "":
		s.Priority = PriorityBatch
	case PriorityInteractive, PriorityBatch, PriorityBulk:
	default:
		return s, fmt.Errorf("spec: priority must be one of %s|%s|%s, got %q",
			PriorityInteractive, PriorityBatch, PriorityBulk, s.Priority)
	}
	if s.DeadlineMS < 0 {
		return s, fmt.Errorf("spec: deadline_ms must be non-negative, got %d", s.DeadlineMS)
	}
	return s, nil
}

// ConfigFingerprint digests everything in the spec that determines the
// campaign's rendered output — the experiment list, the scale, and the
// fault-injection plan — and nothing that doesn't: Workers only shapes
// fan-out (results are bit-identical at any width), Seed only jitters
// retry backoff, TimeoutMS/DeadlineMS only bound wall-clock, and
// Priority only orders the queue. Two specs with equal
// fingerprints render byte-identical figures, which is what licenses the
// cross-tenant result cache (DESIGN §12) to share one execution between
// them. Callers fingerprint the normalized (Validate'd) spec, so "all"
// and the expanded list, a list and the same list with repeats, or an
// empty and an explicit "tiny" scale, hash alike. The experiments' order
// is kept, and it is part of the fingerprint.
func (s JobSpec) ConfigFingerprint() string {
	return journal.ConfigHash(struct {
		Experiments  []string `json:"experiments"`
		Scale        string   `json:"scale"`
		FaultClasses []string `json:"fault_classes"`
		FaultSeed    uint64   `json:"fault_seed"`
	}{s.Experiments, s.Scale, s.FaultClasses, s.FaultSeed})
}

// Progress is a job's live progress snapshot, fed exclusively from
// job-scoped observers (runner events, the job journal's replay hook).
type Progress struct {
	// Units counts the completed measurement units (simulation runs,
	// oracle cells) of the job's run, replayed ones included: a resumed job
	// ends with its uninterrupted run's count, which never decreases.
	Units uint64 `json:"units"`
	// ReplayedUnits counts the units served from the journal, over all
	// of the job's runs.
	ReplayedUnits uint64 `json:"replayed_units"`
	// Attempts and Retries count runner attempts across the job's
	// experiments.
	Attempts uint64 `json:"attempts"`
	Retries  uint64 `json:"retries"`
	// ExperimentsDone counts experiments that finished successfully, out
	// of ExperimentsTotal.
	ExperimentsDone  uint64 `json:"experiments_done"`
	ExperimentsTotal int    `json:"experiments_total"`
}

// progress is the atomic backing store for Progress.
type progress struct {
	units, replayed, attempts, retries, expDone atomic.Uint64
}

// raiseUnits lifts the unit count to n, the current run's count so far: a
// run resumed after a suspension recounts its predecessor's units.
func (p *progress) raiseUnits(n uint64) {
	for cur := p.units.Load(); n > cur && !p.units.CompareAndSwap(cur, n); cur = p.units.Load() {
	}
}

func (p *progress) snapshot(total int) Progress {
	return Progress{
		Units:            p.units.Load(),
		ReplayedUnits:    p.replayed.Load(),
		Attempts:         p.attempts.Load(),
		Retries:          p.retries.Load(),
		ExperimentsDone:  p.expDone.Load(),
		ExperimentsTotal: total,
	}
}

// jobEventsCap bounds each job's event ring.
const jobEventsCap = 4096

// job is the server's in-memory view of one campaign job.
type job struct {
	id      string
	client  string
	spec    JobSpec
	created time.Time
	// fingerprint is spec.ConfigFingerprint() — the result-cache key and
	// the in-flight dedup key; computed once at admission/recovery.
	fingerprint string

	// trace is the job-scoped event ring served by /jobs/{id}/events,
	// bounded at jobEventsCap events.
	trace *telemetry.Trace
	prog  progress

	// deadline is the absolute completion deadline derived from
	// spec.DeadlineMS at admission/recovery; zero means none.
	deadline time.Time

	mu           sync.Mutex
	state        JobState
	started      time.Time
	resumedUnits int
	recovered    bool // found unfinished by the boot pass of the scanner
	canceled     bool // cancel requested (DELETE)
	// preempted marks a cooperative cancel issued by the preemption
	// scheduler (not a DELETE, not a drain): the run unwinds at its next
	// boundary and the job suspends instead of finishing.
	preempted bool
	// preemptions counts how many times this job was suspended.
	preemptions int
	// cancel stops the job's current run. runJob sets it when it starts
	// the run and clears it when it returns, so a non-nil cancel marks a
	// job that holds one of this process's worker slots.
	cancel func()
	// result is the terminal outcome (state, error, finish time, cache
	// source), set by the first terminal transition; nil until then.
	result *Result

	// watchers are the SSE subscribers of /jobs/{id}/events: each gets a
	// coalescing tick (buffered-1, non-blocking send) on every progress
	// update or state transition.
	watchers map[chan struct{}]struct{}

	// enqueued marks a job on the local queue. claimed marks a lease one
	// local actor holds or is taking (claim), hold its handle; fenced marks
	// a run whose lease was superseded mid-flight (the heartbeat's
	// onFenced) — its outcome must not be persisted.
	enqueued bool
	claimed  bool
	hold     *lease.Handle
	fenced   bool
}

// newJob builds the in-memory job for a durable admission record — the
// one constructor behind admission and the scanner's mirror (boot
// recovery included), so every path derives the same fingerprint,
// queue seniority (the admission time) and absolute deadline from the
// record. The job starts queued.
func (s *Server) newJob(rec JobRecord) *job {
	jb := &job{
		id:          rec.ID,
		client:      rec.Client,
		spec:        rec.Spec,
		created:     time.Unix(0, rec.CreatedUnixNS),
		fingerprint: rec.Spec.ConfigFingerprint(),
		state:       StateQueued,
		trace:       telemetry.NewTrace(jobEventsCap),
	}
	if rec.Spec.DeadlineMS > 0 {
		jb.deadline = jb.created.Add(time.Duration(rec.Spec.DeadlineMS) * time.Millisecond)
	}
	return jb
}

// installResult makes a stored terminal result the job's state: boot
// recovery of a finished job, or adoption of a peer's result. The caller
// holds j.mu, or owns a job not yet shared.
func (j *job) installResult(res *Result) {
	j.state = res.State
	j.result = res
	j.resumedUnits = res.ResumedUnits
	j.prog.units.Store(res.Units)
	j.prog.expDone.Store(uint64(len(res.Renders)))
	if res.StartedUnixNS != 0 {
		j.started = time.Unix(0, res.StartedUnixNS)
	}
}

// stamp makes res the job's terminal result, stamped with the job's ID,
// start, finish and resumed units, unless the job is already terminal: the
// first terminal transition stands. It reports whether res landed; the
// caller then commits it.
func (j *job) stamp(res *Result) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	res.ID = j.id
	res.ResumedUnits = j.resumedUnits
	if !j.started.IsZero() {
		res.StartedUnixNS = j.started.UnixNano()
	}
	res.FinishedUnixNS = time.Now().UnixNano()
	j.result = res
	return true
}

// isFenced reports whether the job's lease was superseded mid-run.
func (j *job) isFenced() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fenced
}

// isPreempted reports whether the preemption scheduler cancelled the
// job's current run.
func (j *job) isPreempted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.preempted
}

// setState transitions the job, emits the lifecycle trace event, and
// wakes SSE watchers.
func (j *job) setState(s JobState, detail string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.trace.Emit(telemetry.Event{Kind: "api.job." + string(s), ID: j.id, Detail: detail})
	j.notify()
}

// watch subscribes to the job's change notifications: the returned
// channel receives a tick after every progress update or state
// transition, coalesced into its one buffered slot. The returned stop
// function unsubscribes (client disconnect, stream end).
func (j *job) watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = map[chan struct{}]struct{}{}
	}
	j.watchers[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.watchers, ch)
		j.mu.Unlock()
	}
}

// notify wakes every watcher without blocking: a reader that hasn't
// drained its previous tick coalesces rather than queueing.
func (j *job) notify() {
	j.mu.Lock()
	for ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// Status is the JSON shape of GET /jobs/{id} (and the elements of
// GET /jobs).
type Status struct {
	ID             string   `json:"id"`
	Client         string   `json:"client"`
	State          JobState `json:"state"`
	Spec           JobSpec  `json:"spec"`
	CreatedUnixNS  int64    `json:"created_unix_ns"`
	StartedUnixNS  int64    `json:"started_unix_ns,omitempty"`
	FinishedUnixNS int64    `json:"finished_unix_ns,omitempty"`
	Progress       Progress `json:"progress"`
	// ResumedUnits is how many completed units the job's journal replayed
	// when it (re)started — nonzero exactly when the job survived a
	// server crash or restart mid-run.
	ResumedUnits int  `json:"resumed_units"`
	Recovered    bool `json:"recovered,omitempty"`
	// Preemptions counts how many times a higher-priority arrival
	// suspended this job; DeadlineUnixNS is the absolute completion
	// deadline derived from spec deadline_ms (0 = none).
	Preemptions    int    `json:"preemptions,omitempty"`
	DeadlineUnixNS int64  `json:"deadline_unix_ns,omitempty"`
	Error          string `json:"error,omitempty"`
	// Cached marks a job served from the cross-tenant result cache (or an
	// identical in-flight job's execution) rather than its own run;
	// CacheSource names the job whose execution produced the renders.
	Cached      bool   `json:"cached,omitempty"`
	CacheSource string `json:"cache_source,omitempty"`
	// Owner and Epoch expose the job's on-disk lease: which worker holds
	// (or last held) the job, at which fencing epoch. Empty before the
	// first claim, and for a job served from the cache at admission.
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.id,
		Client:        j.client,
		State:         j.state,
		Spec:          j.spec,
		CreatedUnixNS: j.created.UnixNano(),
		Progress:      j.prog.snapshot(len(j.spec.Experiments)),
		ResumedUnits:  j.resumedUnits,
		Recovered:     j.recovered,
		Preemptions:   j.preemptions,
	}
	if !j.deadline.IsZero() {
		st.DeadlineUnixNS = j.deadline.UnixNano()
	}
	if !j.started.IsZero() {
		st.StartedUnixNS = j.started.UnixNano()
	}
	if res := j.result; res != nil {
		st.FinishedUnixNS = res.FinishedUnixNS
		st.Error = res.Error
		st.Cached = res.Cached
		st.CacheSource = res.CacheSource
	}
	return st
}

// Result is a job's terminal record, persisted as result.json in the job
// store; its presence is what marks a job terminal across restarts.
type Result struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	// Renders maps experiment ID to its rendered figure/table text —
	// byte-identical across an uninterrupted run and a crash-recovered
	// one (the acceptance bar of the kill–restart e2e).
	Renders map[string]string `json:"renders,omitempty"`
	// Attempts maps experiment ID to how many attempts it took.
	Attempts map[string]int `json:"attempts,omitempty"`
	// ResumedUnits is the journal replay count of the job's final run.
	ResumedUnits   int    `json:"resumed_units"`
	Units          uint64 `json:"units"`
	StartedUnixNS  int64  `json:"started_unix_ns,omitempty"`
	FinishedUnixNS int64  `json:"finished_unix_ns,omitempty"`
	// Cached / CacheSource mirror Status: this result was served from
	// another job's execution (the cross-tenant result cache), whose ID is
	// CacheSource. The renders are byte-identical to the source's.
	Cached      bool   `json:"cached,omitempty"`
	CacheSource string `json:"cache_source,omitempty"`
}
