package api

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/telemetry"
)

// Config shapes a Server.
type Config struct {
	// Store is the durable job store (required).
	Store *Store

	// QueueCap bounds how many admitted jobs may wait for a worker. A
	// full queue refuses new submissions with 429 + Retry-After — the
	// queue never buffers unboundedly. <= 0 means 16.
	QueueCap int
	// JobWorkers is how many jobs execute concurrently. <= 0 means 2.
	// (Each job additionally fans its own measurement sweeps out over its
	// spec's Workers goroutines.)
	JobWorkers int
	// DefaultSessionWorkers is a job's sweep fan-out when its spec leaves
	// Workers at 0. <= 0 means 4. Results are bit-identical at any width.
	DefaultSessionWorkers int

	// QuotaRate is the per-client admission rate in jobs/second, with
	// QuotaBurst tokens of burst. Rate <= 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int

	// DefaultTimeout is the per-job deadline when a spec leaves
	// TimeoutMS at 0; 0 means no deadline.
	DefaultTimeout time.Duration
	// ExpTimeout / Retries / StallTimeout shape the per-job runner: the
	// per-attempt deadline, attempt budget, and stall watchdog of the
	// established retry/backoff taxonomy.
	ExpTimeout   time.Duration
	Retries      int
	StallTimeout time.Duration

	// FS is the filesystem seam under every job journal and every lease
	// transaction; nil means the real filesystem. The kill e2e tests inject
	// the chaos plane here, so a seeded kill-point can land mid-append or
	// inside a claim. Store and cache records are written on the real
	// filesystem either way.
	FS durable.FS

	// Preempt enables priority preemption (DESIGN §13): when every worker
	// slot is busy and a strictly higher-priority job arrives, the
	// worst-ranked running job is cancelled at its next run boundary,
	// suspended with its journal checkpoint intact, and requeued to resume
	// bit-identically later. Off by default in the library (tests and
	// embedders opt in); vsmoothd turns it on via -preempt.
	Preempt bool
	// AgeAfter is the queue's aging quantum: a waiting job's effective
	// rank drops by one per AgeAfter waited, so bulk work is delayed but
	// never starved (worst-case inversion 2*AgeAfter plus the work ahead
	// at rank 0). <= 0 means 30s.
	AgeAfter time.Duration
	// ShedWatermark is the queue depth at or past which BULK submissions
	// are shed with 429 + Retry-After instead of queued — under sustained
	// overload the server degrades the lowest class first rather than
	// stuffing the queue to the cap for everyone. <= 0 means 3/4 of
	// QueueCap (minimum 1).
	ShedWatermark int

	// DisableCache turns the cross-tenant result cache and in-flight
	// dedup (DESIGN §12) off: every job executes, nothing is shared. On
	// by default because the campaign engine is deterministic — identical
	// normalized specs render byte-identical figures, so sharing one
	// execution is semantics-free.
	DisableCache bool
	// CacheMax bounds the cache at N fingerprints, evicting the oldest
	// after each publish; <= 0 means unbounded.
	CacheMax int
	// SSEHeartbeat is the comment-heartbeat cadence of /jobs/{id}/events
	// streams (keeps idle proxies from timing the stream out); <= 0
	// means 15s.
	SSEHeartbeat time.Duration
	// Logf receives server logs; nil means stderr.
	Logf func(format string, args ...any)

	// BeforeJob, when set, runs just before each job executes — a test
	// seam (like journal.OnRecord) for holding a worker in place while a
	// saturation test fills the queue. Production code leaves it nil.
	BeforeJob func(id string)

	// WorkerID names this process in the durable per-job leases
	// (internal/lease) every job runs under, so any number of processes
	// may share one store. Must be unique across the live fleet; empty
	// means "<hostname>-<pid>".
	WorkerID string
	// LeaseTTL is how long a claim or renewal confers ownership — how long
	// a dead process's jobs wait for a peer or its restart. <= 0 means 3s.
	LeaseTTL time.Duration
	// ScanInterval is the claim scanner's cadence; <= 0 means LeaseTTL/3.
	ScanInterval time.Duration
}

// Server is the campaign service: admission, queue, executor pool, job
// store, and the HTTP surface over them (Handler).
type Server struct {
	cfg    Config
	store  *Store
	quotas *quotas
	logf   func(format string, args ...any)

	// leases claims, renews and releases this worker's job leases.
	leases *lease.Manager

	mu sync.Mutex
	// jobs holds every job this process has admitted or mirrored from the
	// store; ID order is submission order (JobID).
	jobs     map[string]*job
	depth    int // jobs admitted but not yet picked by a worker
	draining bool
	// drainDeadline is Drain's budget, recorded so the 503 Retry-After
	// can report the actual time until a restart can admit again.
	drainDeadline time.Time
	// avgJobDur is an EWMA of executed jobs' wall-clock, feeding the
	// queue-full Retry-After derivation.
	avgJobDur time.Duration
	// parked maps fingerprint → the jobs that stepped back behind an
	// identical in-flight job (park, unpark in cache.go).
	parked map[string][]*job
	// queue is the priority queue (queue.go): a slice under mu, picked by
	// min (effectiveRank, created, id). work, on mu, is signalled by every
	// enqueue and broadcast once draining is set; idle workers wait on it.
	queue []*job
	work  *sync.Cond

	// stopPick stops the scanner.
	stopPick chan struct{}
	pickOnce sync.Once

	// jobsCtx is the root of every job context; jobsCancel is the drain
	// deadline's hard stop — jobs unwind at their next run boundary with
	// their journals intact.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	workerWG sync.WaitGroup
}

// New opens the server over its store and starts its worker pool and
// scanner. Boot recovery is the scanner's first pass, run before New
// returns: unfinished jobs are marked recovered and resume from their
// journals once claimed. The HTTP surface is served via Handler; Drain
// shuts the pool down gracefully.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("api: Config.Store is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.DefaultSessionWorkers <= 0 {
		cfg.DefaultSessionWorkers = 4
	}
	if cfg.Retries <= 0 {
		cfg.Retries = runner.DefaultMaxAttempts
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	if cfg.AgeAfter <= 0 {
		cfg.AgeAfter = 30 * time.Second
	}
	if cfg.ShedWatermark <= 0 {
		cfg.ShedWatermark = cfg.QueueCap * 3 / 4
		if cfg.ShedWatermark < 1 {
			cfg.ShedWatermark = 1
		}
	}
	if cfg.WorkerID == "" {
		host, _ := os.Hostname()
		cfg.WorkerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = cfg.LeaseTTL / 3
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "vsmoothd: "+format+"\n", args...)
		}
	}

	s := &Server{
		cfg:    cfg,
		store:  cfg.Store,
		quotas: newQuotas(cfg.QuotaRate, cfg.QuotaBurst, time.Now),
		logf:   logf,
		leases: &lease.Manager{
			WorkerID: cfg.WorkerID,
			TTL:      cfg.LeaseTTL,
			FS:       cfg.FS,
			Warn: func(format string, args ...any) {
				logf("lease: "+format, args...)
			},
		},
		jobs:     map[string]*job{},
		parked:   map[string][]*job{},
		stopPick: make(chan struct{}),
	}
	s.work = sync.NewCond(&s.mu)
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())

	if err := s.scanOnce(true); err != nil {
		return nil, err
	}

	s.workerWG.Add(cfg.JobWorkers + 1)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.worker()
	}
	go s.scanLoop()
	return s, nil
}

// scanHeadroom is how far past QueueCap the scanner fills the queue.
const scanHeadroom = 64

// scanLoop is the ownership pump: every ScanInterval it rescans the
// store, learns about jobs peers submitted, adopts results peers
// finished, and enqueues claim attempts for jobs nobody owns — including
// jobs whose owner died and let the lease expire. Claims themselves happen
// in runJob under the lease flock; the scanner only nominates candidates,
// so a lost race costs one queue slot, never correctness.
func (s *Server) scanLoop() {
	defer s.workerWG.Done()
	t := time.NewTicker(s.cfg.ScanInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopPick:
			return
		case <-t.C:
			if err := s.scanOnce(false); err != nil {
				s.logf("scan: %v", err)
			}
		}
	}
}

// scanOnce is one pass of the scanner. It lists the store and reads no
// file of a job this process holds as terminal, running or queued, so a
// long history costs one directory listing per pass.
func (s *Server) scanOnce(boot bool) error {
	ids, err := s.store.list()
	if err != nil {
		return err
	}
	for _, id := range ids {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil
		}
		jb := s.jobs[id]
		s.mu.Unlock()

		if jb == nil {
			if jb = s.mirror(id, boot); jb == nil {
				continue
			}
		} else {
			jb.mu.Lock()
			skip := jb.state.terminal() || jb.state == StateRunning || jb.enqueued
			jb.mu.Unlock()
			if skip {
				continue
			}
			if res, err := s.store.LoadResult(id); err == nil {
				s.adoptResult(jb, res)
				continue
			}
		}
		// Peek at the lease before spending a queue slot: a job under a
		// peer's live lease is theirs until the TTL says otherwise.
		if l, err := lease.Load(s.cfg.FS, s.store.jobDir(id)); err == nil &&
			l.LiveAt(time.Now()) && l.WorkerID != s.cfg.WorkerID {
			continue
		}
		// A parked job waits for its fingerprint's terminal transition,
		// not for a scan.
		s.mu.Lock()
		ok := s.depth < s.cfg.QueueCap+scanHeadroom &&
			!slices.Contains(s.parked[jb.fingerprint], jb) && s.push(jb)
		s.mu.Unlock()
		if ok {
			s.maybePreempt(jb.rank())
		}
	}
	return nil
}

// mirror adds a job this process has not seen to the job table and
// returns it if unfinished (marked recovered on the boot pass). nil means
// terminal, or no readable admission record: a crash mid-admission, never
// acked, which the boot pass reports, or a peer's admission in flight.
func (s *Server) mirror(id string, boot bool) *job {
	warn := func(format string, args ...any) { s.logf("scan: "+format, args...) }
	sj, err := s.store.load(id, warn)
	if err != nil {
		if boot {
			warn("%v", err)
		}
		return nil
	}
	jb := s.newJob(sj.Record)
	if sj.Result != nil {
		jb.installResult(sj.Result)
	} else if boot {
		jb.recovered = true
		apiJobsRecovered.Inc()
		jb.trace.Emit(telemetry.Event{Kind: "api.job.recovered", ID: jb.id})
		s.logf("recovery: job %s unfinished; it resumes from its journal once claimed", jb.id)
	}
	s.mu.Lock()
	s.jobs[id] = jb
	s.mu.Unlock()
	if sj.Result != nil {
		return nil
	}
	return jb
}

// adoptResult installs a terminal result a peer worker persisted, so this
// process's view of the job converges with the store. Local queued copies
// flip terminal; a locally running job is left alone — its own lease
// heartbeat fences it if it truly lost the job.
func (s *Server) adoptResult(jb *job, res *Result) {
	jb.mu.Lock()
	if jb.state.terminal() || jb.state == StateRunning {
		jb.mu.Unlock()
		return
	}
	jb.installResult(res)
	jb.trace.Emit(telemetry.Event{Kind: "api.job." + string(res.State), ID: jb.id, Detail: "adopted from peer result"})
	jb.mu.Unlock()
	jb.notify()
	s.logf("job %s: adopted peer result (%s, %d units)", jb.id, res.State, res.Units)
	s.unpark(jb.fingerprint)
}

// worker picks jobs off the priority queue until the server drains.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		jb := s.dequeue()
		if jb == nil {
			// Draining: queued jobs stay on disk (no result.json), so the
			// next boot recovers them. Do not start work the drain
			// deadline would only cut down.
			return
		}
		// runJob's defers (journal flock, lease) have unwound by the time a
		// job it left suspended or stepped back is requeued or parked.
		if s.runJob(jb) {
			s.park(jb)
			continue
		}
		jb.mu.Lock()
		suspended := jb.state == StateSuspended
		jb.mu.Unlock()
		if suspended {
			// Preempted mid-run with its checkpoint persisted: back on the
			// queue it goes.
			s.requeue(jb)
		}
	}
}

// isDraining reports whether the server has begun shutdown.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the service down gracefully: new submissions are refused
// with 503 and /readyz flips immediately; queued jobs stay durably queued
// for the next boot; running jobs get until ctx's deadline to finish,
// then are cancelled — they unwind at their next run boundary, their
// journals keeping every completed unit, so the next boot resumes them.
// Drain returns nil when every worker stopped in time, or ctx.Err() when
// the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if dl, ok := ctx.Deadline(); ok {
		// Recorded before the flag is visible, so every draining 503's
		// Retry-After can report the real time until this process is gone
		// and a restart (or a peer on the store) admits again.
		s.drainDeadline = dl
	}
	s.work.Broadcast()
	s.mu.Unlock()
	apiDraining.Set(1)
	s.pickOnce.Do(func() { close(s.stopPick) })

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.logf("drain deadline expired; cancelling running jobs (checkpoints are kept)")
		s.jobsCancel()
		<-done
	}
	s.jobsCancel()
	return err
}

// Close hard-stops the server: cancel everything, wait for workers.
// Journals keep completed units; unfinished jobs recover next boot.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.pickOnce.Do(func() { close(s.stopPick) })
	s.jobsCancel()
	s.workerWG.Wait()
}

// lookup returns the job by ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

// statuses returns every job's status in ID order.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, jb := range jobs {
		out = append(out, jb.status())
	}
	slices.SortFunc(out, func(a, b Status) int { return strings.Compare(a.ID, b.ID) })
	return out
}
