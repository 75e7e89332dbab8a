// Package chaos is the deterministic fault plane under the campaign
// infrastructure: an injectable filesystem that sits between the journal
// and the OS and misbehaves on a seeded schedule — torn writes, short
// writes, ENOSPC, failed fsyncs, read bit-flips, I/O latency — plus a
// scheduled kill-point that freezes the file plane at a seeded instant,
// mid-write, as a process death would.
//
// The paper's resilience argument (PAPER.md §6) is that worst-case events
// must be survived, not assumed away; this package holds the campaign
// layer to the same standard. Everything is a pure function of the plan:
// a fault is drawn by hashing (seed, op index, op class), so a schedule
// replays exactly from its seed regardless of goroutine interleaving, and
// every soak violation is reported as a replayable seed.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/telemetry"
)

// Fault enumerates the misbehaviors the plane can inject into one file
// operation. This is the plane's whole fault vocabulary (DESIGN §8).
type Fault uint8

const (
	// None: the op proceeds untouched.
	None Fault = iota
	// TornWrite persists only a seeded prefix of the buffer and fails the
	// write — what a crash mid-write leaves on disk.
	TornWrite
	// ShortWrite persists a seeded prefix and reports it with
	// io.ErrShortWrite — the partial-success path bufio must handle.
	ShortWrite
	// NoSpace persists nothing and returns ENOSPC.
	NoSpace
	// SyncFail makes fsync return EIO; the data's durability is unknown.
	SyncFail
	// BitFlip flips one seeded bit in the data returned by a read.
	BitFlip
	// Latency delays the op by a seeded duration, then performs it
	// normally.
	Latency
	// Kill is the kill-point: the op persists a seeded prefix (a torn
	// write), the plane freezes — every later op on every file fails with
	// ErrKilled and persists nothing — and the plan's OnKill callback
	// fires (the soak harness cancels the campaign there).
	Kill
)

// String names the fault for traces and reports.
func (f Fault) String() string {
	switch f {
	case None:
		return "none"
	case TornWrite:
		return "torn-write"
	case ShortWrite:
		return "short-write"
	case NoSpace:
		return "enospc"
	case SyncFail:
		return "sync-fail"
	case BitFlip:
		return "bit-flip"
	case Latency:
		return "latency"
	case Kill:
		return "kill"
	default:
		return fmt.Sprintf("Fault(%d)", uint8(f))
	}
}

// Injected error values. ErrNoSpace and ErrSyncFailed wrap the errno a
// real filesystem would return, so callers classifying with errors.Is see
// the same shape either way.
var (
	// ErrKilled reports an op refused because the plane's kill-point
	// fired: as far as the file is concerned, the process is dead.
	ErrKilled = errors.New("chaos: killed at seeded kill-point")
	// ErrNoSpace is the injected ENOSPC.
	ErrNoSpace = fmt.Errorf("chaos: injected write failure: %w", syscall.ENOSPC)
	// ErrSyncFailed is the injected fsync EIO.
	ErrSyncFailed = fmt.Errorf("chaos: injected fsync failure: %w", syscall.EIO)
	// errTorn reports the failing half of a torn write.
	errTorn = fmt.Errorf("chaos: injected torn write: %w", syscall.EIO)
)

// Plan scripts a seeded fault schedule over the plane's op stream. Each
// probability is per-mille (1/1000), drawn independently per op of the
// matching class.
type Plan struct {
	Seed int64

	// Write-op faults, checked in this order (first hit wins).
	TornWritePerMille  int
	ShortWritePerMille int
	NoSpacePerMille    int
	// Sync-op faults.
	SyncFailPerMille int
	// Read-op faults.
	BitFlipPerMille int
	// Any-op faults.
	LatencyPerMille int
	// MaxLatency bounds the injected delay; <= 0 disables Latency faults.
	MaxLatency time.Duration

	// KillAtOp, when positive, fires the kill-point at the first op whose
	// 1-based index reaches it (>= so a plan outlives a shrinking op
	// stream): that op persists a seeded prefix and the plane freezes.
	KillAtOp int64
}

// opClass partitions ops for fault drawing.
type opClass uint8

const (
	opWrite opClass = iota + 1
	opSync
	opRead
)

// draw returns the fault for one op given its hash draw r. The draw
// consumes three decimal digits of r per candidate, so candidate faults
// are (nearly) independent.
func (p Plan) draw(class opClass, r uint64) Fault {
	roll := func(perMille int) bool {
		hit := perMille > 0 && int(r%1000) < perMille
		r /= 1000
		return hit
	}
	switch class {
	case opWrite:
		if roll(p.TornWritePerMille) {
			return TornWrite
		}
		if roll(p.ShortWritePerMille) {
			return ShortWrite
		}
		if roll(p.NoSpacePerMille) {
			return NoSpace
		}
	case opSync:
		if roll(p.SyncFailPerMille) {
			return SyncFail
		}
	case opRead:
		if roll(p.BitFlipPerMille) {
			return BitFlip
		}
	}
	if p.MaxLatency > 0 && roll(p.LatencyPerMille) {
		return Latency
	}
	return None
}

// mix is a splitmix64-style finalizer over (seed, op, class): the pure
// function the whole schedule derives from.
func mix(seed int64, op int64, class opClass) uint64 {
	z := uint64(seed) ^ (uint64(op) * 0x9e3779b97f4a7c15) ^ (uint64(class) * 0xbf58476d1ce4e5b9)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FS implements durable.FS over the real filesystem, injecting the
// plan's faults. One FS maintains one op stream shared by every file it
// opens and every whole-file op; it is safe for concurrent use. Writes,
// syncs and reads draw from the stream; Stat, Truncate, opens, closes and
// Lock do not.
type FS struct {
	base durable.FS
	plan Plan

	// OnKill, when set, runs once when the kill-point fires — after the
	// torn prefix is persisted, outside the plane's lock. The soak
	// harness cancels the campaign context here.
	onKill func()

	mu     sync.Mutex
	ops    int64
	killed bool
	counts map[Fault]int64
}

// NewFS returns a fault plane over the real filesystem. onKill may be nil.
func NewFS(plan Plan, onKill func()) *FS {
	return &FS{base: durable.OS(), plan: plan, onKill: onKill, counts: map[Fault]int64{}}
}

// Ops returns how many operations the plane has intercepted.
func (fs *FS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Killed reports whether the kill-point has fired.
func (fs *FS) Killed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.killed
}

// Counts returns a copy of the per-fault injection counts.
func (fs *FS) Counts() map[Fault]int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[Fault]int64, len(fs.counts))
	for k, v := range fs.counts {
		out[k] = v
	}
	return out
}

// next assigns the next op index and draws its fault. dead reports a
// plane already frozen by the kill-point.
func (fs *FS) next(class opClass, name string) (fault Fault, dead bool, r uint64) {
	var killNow func()
	fs.mu.Lock()
	if fs.killed {
		fs.mu.Unlock()
		return None, true, 0
	}
	fs.ops++
	op := fs.ops
	r = mix(fs.plan.Seed, op, class)
	if fs.plan.KillAtOp > 0 && op >= fs.plan.KillAtOp {
		fs.killed = true
		fs.counts[Kill]++
		fault = Kill
		killNow = fs.onKill
	} else {
		fault = fs.plan.draw(class, r)
		if fault != None {
			fs.counts[fault]++
		}
	}
	fs.mu.Unlock()

	if fault != None {
		if fault == Kill {
			chaosKills.Inc()
		} else {
			chaosFaults.Inc()
		}
		telemetry.Emit(telemetry.Event{Kind: "chaos." + fault.String(), ID: name, Value: float64(op)})
	}
	if killNow != nil {
		killNow()
	}
	return fault, false, r
}

// sleep injects the seeded latency for one op.
func (fs *FS) sleep(r uint64) {
	if fs.plan.MaxLatency > 0 {
		time.Sleep(time.Duration(r % uint64(fs.plan.MaxLatency)))
	}
}

// prefixLen picks the seeded torn-write prefix: strictly shorter than the
// buffer, so a torn write is genuinely torn.
func prefixLen(r uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((r >> 32) % uint64(n))
}

// Stat passes through: existence checks carry no payload to corrupt.
func (fs *FS) Stat(name string) (os.FileInfo, error) {
	if fs.Killed() {
		return nil, ErrKilled
	}
	return fs.base.Stat(name)
}

// Truncate passes through (it is the journal's own torn-tail repair).
func (fs *FS) Truncate(name string, size int64) error {
	if fs.Killed() {
		return ErrKilled
	}
	return fs.base.Truncate(name, size)
}

// OpenRead opens name for reading through the plane.
func (fs *FS) OpenRead(name string) (durable.File, error) {
	if fs.Killed() {
		return nil, ErrKilled
	}
	f, err := fs.base.OpenRead(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, name: name, f: f}, nil
}

// OpenAppend opens name for appending through the plane.
func (fs *FS) OpenAppend(name string) (durable.File, error) {
	if fs.Killed() {
		return nil, ErrKilled
	}
	f, err := fs.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, name: name, f: f}, nil
}

// Lock delegates straight to the base filesystem, outside the fault plane
// and its op stream: the advisory lock is campaign infrastructure, not
// journal data, and a real process death releases a real flock no matter
// how the data plane died. Routing it through the plane would also shift
// every seeded fault schedule by one op, breaking replayability of
// pre-lock soak seeds.
func (fs *FS) Lock(name string) (func() error, error) { return fs.base.Lock(name) }

// The whole-file ops below serve the lease layer, so a server wires one
// plane under both the journal and the claim path: seeded kill-points
// then land inside claim transactions, renewals, and the guarded
// terminal write, exactly like a process death there. Lease ops draw
// from the same op stream as journal ops; a campaign run without a
// server (the soak, the CLI) never calls them, so its seeded schedules
// replay unchanged.

// ReadFile reads the whole file through the plane: one read-op draw per
// Read call of the wrapped handle, so bit-flips and kill-points apply.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	f, err := fs.OpenRead(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic is the atomic replace through the plane. One write-op
// draw covers the whole tmp+fsync+rename transaction; any injected fault
// persists at most a prefix of the TEMP file and never renames — the
// destination keeps its old contents, preserving exactly the
// crash-atomicity the lease protocol relies on. The torn temp file is
// the one a dead writer leaves (durable.LeaveTemp), so fsck sweeps it.
func (fs *FS) WriteFileAtomic(name string, data []byte) error {
	fault, dead, r := fs.next(opWrite, name)
	if dead {
		return ErrKilled
	}
	switch fault {
	case Latency:
		fs.sleep(r)
	case NoSpace:
		return ErrNoSpace
	case TornWrite, ShortWrite, Kill:
		// Crash mid-transaction: a prefix reaches the temp file, the
		// rename never happens. Leaving the debris is best effort, as in
		// a real crash: the caller sees the injected fault either way.
		_ = durable.LeaveTemp(name, data[:prefixLen(r, len(data))])
		if fault == Kill {
			return ErrKilled
		}
		return errTorn
	}
	return fs.base.WriteFileAtomic(name, data)
}

// AppendFile appends through the plane (open + one write-op draw): the
// lease history log sees the same torn-tail faults the journal does.
func (fs *FS) AppendFile(name string, data []byte) error {
	return durable.Append(fs, name, data)
}

// file wraps one handle, routing every op through the plane.
type file struct {
	fs   *FS
	name string
	f    durable.File
}

func (f *file) Write(p []byte) (int, error) {
	fault, dead, r := f.fs.next(opWrite, f.name)
	if dead {
		return 0, ErrKilled
	}
	switch fault {
	case Latency:
		f.fs.sleep(r)
	case TornWrite:
		n := prefixLen(r, len(p))
		if n > 0 {
			f.f.Write(p[:n])
		}
		return n, errTorn
	case ShortWrite:
		n := prefixLen(r, len(p))
		if n > 0 {
			n, _ = f.f.Write(p[:n])
		}
		return n, io.ErrShortWrite
	case NoSpace:
		return 0, ErrNoSpace
	case Kill:
		n := prefixLen(r, len(p))
		if n > 0 {
			f.f.Write(p[:n])
		}
		return n, ErrKilled
	}
	return f.f.Write(p)
}

func (f *file) Sync() error {
	fault, dead, r := f.fs.next(opSync, f.name)
	if dead {
		return ErrKilled
	}
	switch fault {
	case Latency:
		f.fs.sleep(r)
	case SyncFail:
		return ErrSyncFailed
	case Kill:
		// Mid-sync kill: the write reached the OS but durability was
		// never confirmed.
		return ErrKilled
	}
	return f.f.Sync()
}

func (f *file) Read(p []byte) (int, error) {
	fault, dead, r := f.fs.next(opRead, f.name)
	if dead {
		return 0, ErrKilled
	}
	if fault == Latency {
		f.fs.sleep(r)
	}
	n, err := f.f.Read(p)
	if fault == BitFlip && n > 0 {
		i := int((r >> 24) % uint64(n))
		p[i] ^= 1 << ((r >> 16) & 7)
	}
	return n, err
}

func (f *file) Close() error { return f.f.Close() }
