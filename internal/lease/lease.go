// Package lease is the job-ownership layer under a multi-worker fleet:
// any number of vsmoothd processes share one job store, and which worker
// owns which job is decided by durable per-job lease files instead of an
// in-process queue.
//
// The protocol has three parts, each with one responsibility:
//
//   - The flock (a .lock sidecar next to the lease file) is the claim
//     ARBITER: it serializes the read-decide-write critical section so
//     two workers racing for the same expired job cannot both conclude
//     they won. It is held only for the instant of the transaction,
//     never across job execution — a paused process must not be able to
//     pin a job forever just by holding a descriptor.
//
//   - The lease file (jobs/<id>/lease.json, written tmp+fsync+rename) is
//     the crash-visible RECORD: {worker_id, epoch, expires_at}. A worker
//     that dies stops renewing; once the TTL passes, any peer's claim
//     transaction sees an expired lease and takes over. The file is
//     never deleted — release just writes it back expired — so the full
//     ownership state survives any crash and is inspectable.
//
//   - The epoch is the FENCE: a strictly monotonic per-job counter bumped
//     by every successful claim. A worker that was paused (SIGSTOP, GC
//     pause, NFS hiccup) past its TTL and then resumes still holds an
//     in-memory Handle with the old epoch; every mutation it attempts —
//     renewal, release, and above all the terminal result write guarded
//     by Handle.Guard — re-reads the lease under the flock and fails with
//     ErrFenced when the on-disk epoch has moved past its own. A stale
//     owner can therefore never overwrite a successor's work, no matter
//     how late it wakes up.
//
// Every claim, renewal, release, and fence rejection is additionally
// appended to jobs/<id>/lease.log (one JSON line each, written inside the
// same flock'd transaction). The log is the epoch history the fleet tests
// assert over: epochs strictly increase, and no claim's acquisition time
// precedes the expiry of a live predecessor held by another worker.
package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/telemetry"
)

// Typed errors for every way a lease operation can be refused.
var (
	// ErrHeld reports a claim refused because another worker holds a live
	// (unexpired, unreleased) lease on the job.
	ErrHeld = errors.New("lease: held by another worker")
	// ErrFenced reports a mutation attempted with a stale Handle: the
	// on-disk lease's epoch has advanced past the handle's (a successor
	// claimed the job), or its owner is no longer the handle's worker.
	// The caller must abandon the job — especially its terminal write.
	ErrFenced = errors.New("lease: fenced (lease superseded by a newer epoch)")
	// ErrLockBusy reports a claim-lock that stayed contended past the
	// acquisition budget: some other worker is mid-transaction on this
	// job. Transient — retry on the next scan.
	ErrLockBusy = errors.New("lease: claim lock busy")
)

// Lease is the durable ownership record (lease.json).
type Lease struct {
	JobID    string `json:"job_id"`
	WorkerID string `json:"worker_id"`
	// Epoch increments on every successful claim; it never goes
	// backwards for a job, even across worker generations.
	Epoch uint64 `json:"epoch"`
	// AcquiredUnixNS is when this epoch's claim transaction committed.
	AcquiredUnixNS int64 `json:"acquired_unix_ns"`
	// ExpiresUnixNS is the moment the lease stops being live unless
	// renewed. Dead workers stop renewing; expiry is how the fleet
	// detects them.
	ExpiresUnixNS int64 `json:"expires_unix_ns"`
	// Released marks a lease given back deliberately (drain, claim lost
	// downstream): immediately claimable, distinct from expiry.
	Released bool `json:"released,omitempty"`
	// Units is the owner's completed-unit count at the last renewal —
	// observability only, never part of the protocol.
	Units uint64 `json:"units,omitempty"`
}

// LiveAt reports whether the lease confers ownership at time now.
func (l *Lease) LiveAt(now time.Time) bool {
	return l != nil && !l.Released && now.UnixNano() < l.ExpiresUnixNS
}

// Event is one line of the per-job lease history log (lease.log).
type Event struct {
	Op       string `json:"op"` // claim | renew | release | fence
	JobID    string `json:"job_id"`
	WorkerID string `json:"worker_id"`
	Epoch    uint64 `json:"epoch"`
	AtUnixNS int64  `json:"at_unix_ns"`
	// ExpiresUnixNS is the lease expiry this event established (claim,
	// renew) or found on disk (fence).
	ExpiresUnixNS int64 `json:"expires_unix_ns,omitempty"`
	// PrevWorkerID/PrevExpiresUnixNS describe the lease a claim replaced
	// (empty for the first claim) — what the no-overlap assertion checks
	// acquisition times against.
	PrevWorkerID      string `json:"prev_worker_id,omitempty"`
	PrevExpiresUnixNS int64  `json:"prev_expires_unix_ns,omitempty"`
	// Reason annotates a release: empty for an ordinary end-of-run
	// release, "preempted" when the holder gave the job back mid-run for
	// a peer to resume (ReleaseFor).
	Reason string `json:"reason,omitempty"`
}

const (
	leaseFile   = "lease.json"
	historyFile = "lease.log"
	// lockWait bounds how long a transaction waits for a contended claim
	// lock before reporting ErrLockBusy. Transactions hold the lock for
	// microseconds; a long hold means a peer mid-claim, and backing off
	// to the next scan is cheaper than queueing.
	lockWait = 2 * time.Second
	lockPoll = 5 * time.Millisecond
)

// Manager claims and maintains leases for one worker over one store.
type Manager struct {
	// WorkerID identifies this worker in lease files and history; it
	// must be unique across the live fleet (hostname+pid works).
	WorkerID string
	// TTL is how long a claim or renewal confers ownership. The renewal
	// heartbeat should run several times per TTL (Keep uses TTL/3).
	TTL time.Duration
	// FS is the filesystem seam; nil means the real filesystem. The
	// chaos plane (internal/chaos) implements it to inject faults and
	// kill-points into the claim path.
	FS durable.FS
	// Now is the clock seam; nil means time.Now.
	Now func() time.Time
	// Warn receives non-fatal oddities (corrupt lease files, history
	// append failures); nil means stderr.
	Warn func(format string, args ...any)
}

func (m *Manager) fs() durable.FS {
	if m.FS != nil {
		return m.FS
	}
	return durable.OS()
}

func (m *Manager) now() time.Time {
	if m.Now != nil {
		return m.Now()
	}
	return time.Now()
}

func (m *Manager) warnf(format string, args ...any) {
	if m.Warn != nil {
		m.Warn(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "lease: "+format+"\n", args...)
}

// Load reads a job's lease file through fs (nil means the real
// filesystem). A missing file returns (nil, nil): the job has never been
// claimed. A corrupt file is an error — callers inside a claim
// transaction treat it as claimable with a warning, but observers must
// not mistake corruption for vacancy.
func Load(fsys durable.FS, jobDir string) (*Lease, error) {
	if fsys == nil {
		fsys = durable.OS()
	}
	data, err := fsys.ReadFile(filepath.Join(jobDir, leaseFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("lease: corrupt %s: %w", filepath.Join(jobDir, leaseFile), err)
	}
	return &l, nil
}

// History reads a job's lease history log. Unparseable lines are skipped
// (a torn final line is expected after a crash mid-append).
func History(fsys durable.FS, jobDir string) ([]Event, error) {
	if fsys == nil {
		fsys = durable.OS()
	}
	data, err := fsys.ReadFile(filepath.Join(jobDir, historyFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []Event
	for _, line := range splitLines(data) {
		var ev Event
		if json.Unmarshal(line, &ev) == nil && ev.Op != "" {
			out = append(out, ev)
		}
	}
	return out, nil
}

func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

// lockTx acquires the job's claim flock, waiting briefly on contention,
// and returns the release function.
func (m *Manager) lockTx(jobDir string) (func() error, error) {
	lockName := filepath.Join(jobDir, leaseFile)
	deadline := m.now().Add(lockWait)
	for {
		unlock, err := m.fs().Lock(lockName)
		if err == nil {
			return unlock, nil
		}
		// Contended: a peer is mid-transaction. Their hold is
		// microseconds; poll briefly, then surface busy.
		if m.now().After(deadline) {
			return nil, fmt.Errorf("%w: %s: %v", ErrLockBusy, lockName, err)
		}
		time.Sleep(lockPoll)
	}
}

// writeLease persists l atomically as the job's lease file.
func (m *Manager) writeLease(jobDir string, l *Lease) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("lease: marshal: %w", err)
	}
	return m.fs().WriteFileAtomic(filepath.Join(jobDir, leaseFile), append(data, '\n'))
}

// logEvent appends one history line. History is observability and test
// oracle, not protocol: a failed append warns and never fails the
// transaction that produced it.
func (m *Manager) logEvent(jobDir string, ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		m.warnf("history marshal: %v", err)
		return
	}
	if err := m.fs().AppendFile(filepath.Join(jobDir, historyFile), append(line, '\n')); err != nil {
		m.warnf("history append %s: %v", jobDir, err)
	}
}

// Claim attempts to take ownership of the job rooted at jobDir. Under
// the claim flock it reads the current lease; a live lease held by
// another worker refuses with ErrHeld, anything else — vacant, expired,
// released, corrupt (with a warning), or this worker's own — is claimed
// at the next epoch. The epoch always advances, even when re-claiming
// our own lease: a restarted worker with a recycled WorkerID must still
// fence its previous incarnation's in-flight writes.
func (m *Manager) Claim(jobDir, jobID string) (*Handle, error) {
	unlock, err := m.lockTx(jobDir)
	if err != nil {
		return nil, err
	}
	defer unlock()

	now := m.now()
	cur, err := Load(m.fs(), jobDir)
	if err != nil {
		// A corrupt lease file cannot name a live owner; claiming over it
		// is the only way the job ever runs again. The epoch restarts at
		// 1 — the fence weakens for exactly one takeover, which the
		// history records.
		m.warnf("job %s: %v; claiming over corrupt lease", jobID, err)
		cur = nil
	}
	if cur.LiveAt(now) && cur.WorkerID != m.WorkerID {
		leaseRefused.Inc()
		return nil, fmt.Errorf("%w: job %s owned by %s (epoch %d) until %s",
			ErrHeld, jobID, cur.WorkerID, cur.Epoch, time.Unix(0, cur.ExpiresUnixNS).Format(time.RFC3339Nano))
	}

	next := &Lease{
		JobID:          jobID,
		WorkerID:       m.WorkerID,
		Epoch:          1,
		AcquiredUnixNS: now.UnixNano(),
		ExpiresUnixNS:  now.Add(m.TTL).UnixNano(),
	}
	ev := Event{Op: "claim", JobID: jobID, WorkerID: m.WorkerID,
		AtUnixNS: now.UnixNano(), ExpiresUnixNS: next.ExpiresUnixNS}
	if cur != nil {
		next.Epoch = cur.Epoch + 1
		ev.PrevWorkerID = cur.WorkerID
		ev.PrevExpiresUnixNS = cur.ExpiresUnixNS
	}
	ev.Epoch = next.Epoch
	if err := m.writeLease(jobDir, next); err != nil {
		return nil, fmt.Errorf("lease: claim %s: %w", jobID, err)
	}
	m.logEvent(jobDir, ev)

	leaseClaims.Inc()
	if cur != nil && cur.WorkerID != m.WorkerID && !cur.Released {
		// Took over a dead peer's expired lease: the failover the fleet
		// exists for.
		leaseTakeovers.Inc()
	}
	telemetry.Emit(telemetry.Event{Kind: "lease.claim", ID: jobID, Value: float64(next.Epoch), Detail: m.WorkerID})
	return &Handle{m: m, jobDir: jobDir, lease: *next}, nil
}

// Handle is one worker's live claim on one job: the in-memory side of a
// lease at a specific epoch. All mutations re-verify the on-disk lease
// under the claim flock first, so a Handle that outlived its lease turns
// every operation into ErrFenced instead of a corruption.
type Handle struct {
	m      *Manager
	jobDir string
	lease  Lease
}

// Lease returns a copy of the lease as of the handle's last successful
// transaction.
func (h *Handle) Lease() Lease { return h.lease }

// Epoch returns the handle's epoch — the fence token.
func (h *Handle) Epoch() uint64 { return h.lease.Epoch }

// verifyLocked re-reads the on-disk lease (caller holds the flock) and
// reports ErrFenced when it no longer matches the handle's worker+epoch.
func (h *Handle) verifyLocked(now time.Time) (*Lease, error) {
	cur, err := Load(h.m.fs(), h.jobDir)
	if err != nil {
		return nil, err
	}
	if cur == nil || cur.WorkerID != h.lease.WorkerID || cur.Epoch != h.lease.Epoch {
		h.m.logEvent(h.jobDir, Event{Op: "fence", JobID: h.lease.JobID, WorkerID: h.lease.WorkerID,
			Epoch: h.lease.Epoch, AtUnixNS: now.UnixNano(), ExpiresUnixNS: fenceExpiry(cur)})
		leaseFenced.Inc()
		telemetry.Emit(telemetry.Event{Kind: "lease.fenced", ID: h.lease.JobID,
			Value: float64(h.lease.Epoch), Detail: h.lease.WorkerID})
		if cur == nil {
			return nil, fmt.Errorf("%w: job %s: lease file gone (held epoch %d)", ErrFenced, h.lease.JobID, h.lease.Epoch)
		}
		return nil, fmt.Errorf("%w: job %s: on-disk epoch %d (%s), held epoch %d (%s)",
			ErrFenced, h.lease.JobID, cur.Epoch, cur.WorkerID, h.lease.Epoch, h.lease.WorkerID)
	}
	return cur, nil
}

func fenceExpiry(cur *Lease) int64 {
	if cur == nil {
		return 0
	}
	return cur.ExpiresUnixNS
}

// Renew extends the lease by the manager's TTL, recording the owner's
// progress. A renewal that finds the lease superseded returns ErrFenced —
// the paused-then-resumed worker's first notification that the job moved
// on without it.
func (h *Handle) Renew(units uint64) error {
	unlock, err := h.m.lockTx(h.jobDir)
	if err != nil {
		return err
	}
	defer unlock()

	now := h.m.now()
	if _, err := h.verifyLocked(now); err != nil {
		return err
	}
	next := h.lease
	next.ExpiresUnixNS = now.Add(h.m.TTL).UnixNano()
	next.Units = units
	if err := h.m.writeLease(h.jobDir, &next); err != nil {
		return fmt.Errorf("lease: renew %s: %w", h.lease.JobID, err)
	}
	h.lease = next
	h.m.logEvent(h.jobDir, Event{Op: "renew", JobID: next.JobID, WorkerID: next.WorkerID,
		Epoch: next.Epoch, AtUnixNS: now.UnixNano(), ExpiresUnixNS: next.ExpiresUnixNS})
	leaseRenewals.Inc()
	return nil
}

// Release gives the lease back deliberately: the file is rewritten as
// released (not deleted — the record stays crash-visible), making the job
// immediately claimable without waiting out the TTL. Releasing a lease
// we no longer hold is ErrFenced and changes nothing.
func (h *Handle) Release() error { return h.ReleaseFor("") }

// ReleaseFor is Release with a reason recorded in the history event —
// "preempted" marks a release-for-requeue, where the holder suspended the
// job mid-run and hands it to whichever peer (or itself) picks it next.
// The lease-file semantics are identical to an ordinary release.
func (h *Handle) ReleaseFor(reason string) error {
	unlock, err := h.m.lockTx(h.jobDir)
	if err != nil {
		return err
	}
	defer unlock()

	now := h.m.now()
	if _, err := h.verifyLocked(now); err != nil {
		return err
	}
	next := h.lease
	next.Released = true
	next.ExpiresUnixNS = now.UnixNano()
	if err := h.m.writeLease(h.jobDir, &next); err != nil {
		return fmt.Errorf("lease: release %s: %w", h.lease.JobID, err)
	}
	h.lease = next
	h.m.logEvent(h.jobDir, Event{Op: "release", JobID: next.JobID, WorkerID: next.WorkerID,
		Epoch: next.Epoch, AtUnixNS: now.UnixNano(), Reason: reason})
	leaseReleases.Inc()
	detail := next.WorkerID
	if reason != "" {
		detail += " (" + reason + ")"
	}
	telemetry.Emit(telemetry.Event{Kind: "lease.release", ID: next.JobID, Value: float64(next.Epoch), Detail: detail})
	return nil
}

// Guard verifies the handle still owns the lease and, while HOLDING the
// claim flock, runs fn — so no successor can claim the job between the
// epoch check and fn's completion. This is the fence in front of every
// terminal write: a stale worker's fn never runs (ErrFenced), and a live
// worker's fn commits atomically with respect to claims.
func (h *Handle) Guard(fn func() error) error {
	unlock, err := h.m.lockTx(h.jobDir)
	if err != nil {
		return err
	}
	defer unlock()
	if _, err := h.verifyLocked(h.m.now()); err != nil {
		return err
	}
	return fn()
}

// Keep is the renewal heartbeat: it renews every interval (TTL/3 when
// interval <= 0) until ctx ends or the lease is fenced, feeding the
// owner's progress into each renewal. On ErrFenced it calls onFenced
// (which should cancel the job) and returns. Transient renewal errors —
// a busy lock, an injected fault — are warned and retried: as long as
// one renewal lands per TTL the lease stays live, and if none do, expiry
// hands the job to a peer, which is the designed failure mode.
func (h *Handle) Keep(ctx interface{ Done() <-chan struct{} }, interval time.Duration, units func() uint64, onFenced func(error)) {
	if interval <= 0 {
		interval = h.m.TTL / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var u uint64
			if units != nil {
				u = units()
			}
			if err := h.Renew(u); err != nil {
				if errors.Is(err, ErrFenced) {
					if onFenced != nil {
						onFenced(err)
					}
					return
				}
				h.m.warnf("job %s: renew failed (lease expires %s): %v",
					h.lease.JobID, time.Unix(0, h.lease.ExpiresUnixNS).Format(time.RFC3339Nano), err)
			}
		}
	}
}
