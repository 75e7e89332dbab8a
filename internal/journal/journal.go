// Package journal is the checkpoint layer under long measurement
// campaigns: an append-only, line-oriented record store that persists each
// completed unit of work (a corpus run, an oracle pair-table cell) as it
// finishes, so an interrupted campaign resumes from its last completed
// unit instead of from zero.
//
// The format is deliberately paranoid, because a journal is only useful if
// a stale or damaged one can never corrupt results:
//
//   - The first line is a header carrying a config hash — a digest of
//     everything that determines the campaign's output (experiment scale,
//     seeds, code revision). A journal whose hash does not match the
//     current configuration is rejected outright, never partially reused.
//   - Every record line carries a checksum of its key and payload. A line
//     that fails to parse or verify (bit rot, partial overwrite) is
//     skipped with a warning and recomputed; it is never trusted.
//   - A torn tail — a final line without a newline, left by a crash
//     mid-append — is truncated before the writer reopens the file, so
//     the first post-crash record can never concatenate onto the partial
//     line and lose both.
//   - A failed write or fsync permanently poisons the journal
//     (fsyncgate semantics: after a failed fsync the kernel may have
//     dropped the dirty pages, so retrying cannot restore durability).
//     Every later Record returns the sticky ErrJournalFailed and nothing
//     further is buffered into a file whose durability is unknown;
//     callers degrade to journal-less execution instead of trusting it.
//
// Records are JSON so float64 payloads round-trip exactly (encoding/json
// emits the shortest representation that parses back to the same bits),
// which is what makes a resumed campaign bit-identical to an uninterrupted
// one.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/telemetry"
)

// FormatVersion is bumped whenever the record layout changes; a journal
// written by a different version is rejected like a config mismatch.
const FormatVersion = 1

// Typed errors for every way a journal can be refused.
var (
	// ErrStale reports a journal whose config hash does not match the
	// current campaign configuration.
	ErrStale = errors.New("journal: config hash mismatch (stale journal)")
	// ErrNoHeader reports a journal file without a readable header line.
	ErrNoHeader = errors.New("journal: missing or corrupt header")
	// ErrExists reports an existing journal opened without resume.
	ErrExists = errors.New("journal: file exists")
	// ErrLocked reports a journal whose advisory lock is held by another
	// live campaign. Two writers interleaving records in one file would
	// corrupt both campaigns silently; the second opener fails fast
	// instead. The lock dies with its holder (flock semantics), so a
	// crashed campaign's journal is immediately recoverable.
	ErrLocked = errors.New("journal: locked by another campaign")
	// ErrClosed reports a write to a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrJournalFailed reports a journal poisoned by a failed write,
	// flush, or fsync. The error is sticky: once returned, every later
	// Record and Sync returns it, and nothing more is written — the file
	// holds exactly the records that were durable before the failure, so
	// a later resume can still trust what it verifies. Callers should
	// warn and continue without checkpointing rather than abort.
	ErrJournalFailed = errors.New("journal: failed (degraded to journal-less execution)")
)

type header struct {
	Kind    string `json:"kind"` // "header"
	Version int    `json:"version"`
	Config  string `json:"config"`
}

type record struct {
	Kind    string          `json:"kind"` // "entry"
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	Sum     string          `json:"sum"` // sha256(key || payload), hex
}

// Journal is a single campaign's checkpoint store. It is safe for
// concurrent use: sweep workers record completed units from many
// goroutines.
type Journal struct {
	mu        sync.Mutex
	f         durable.File
	w         *bufio.Writer
	entries   map[string]json.RawMessage
	path      string
	config    string
	records   int
	closed    bool
	syncEvery int
	sinceSync int
	// failure is the sticky poison error; non-nil after the first failed
	// write/flush/fsync (wraps ErrJournalFailed).
	failure error
	// duplicates counts re-recorded keys observed during load: appends
	// beyond the first for the same key (last record wins).
	duplicates int
	// headerWritten records that the on-disk file already starts with a
	// valid matching header (set by load on resume).
	headerWritten bool
	// validSize/tornBytes: load's framing result — the byte length of the
	// complete, newline-terminated prefix, and how many trailing bytes of
	// torn final line follow it (0 when the file ends cleanly).
	validSize int64
	tornBytes int64

	// unlock releases the exclusive advisory lock taken at Open. It runs
	// exactly once, on Close or on an Open that fails after the lock was
	// taken — even on a poisoned journal, because a lock held past the
	// owner's death in-process would block its own resume.
	unlock func() error

	// Warn receives one formatted message per skipped corrupt record.
	// Defaults to stderr when nil at Open time.
	warn func(format string, args ...any)

	// OnRecord, when set, observes every successful Record append with
	// the running record count. Tests use it to kill a campaign at an
	// exact journal boundary; production code leaves it nil.
	OnRecord func(n int, key string)

	// OnReplay, when set, observes every successful LookupInto replay.
	// The campaign service uses it to count a job's replayed units
	// apart from the process-wide journal.replays counter, so concurrent
	// jobs' progress never bleeds into each other.
	OnReplay func(key string)
}

// Options configures Open.
type Options struct {
	// Resume allows opening an existing journal file and loading its
	// records. Without it, an existing file is an ErrExists error — a
	// guard against silently mixing two campaigns in one file.
	Resume bool
	// Warn receives one message per skipped corrupt record; nil logs to
	// stderr.
	Warn func(format string, args ...any)
	// FS is the filesystem seam; nil means the real filesystem
	// (durable.OS). internal/chaos injects fault-scripted filesystems here.
	FS durable.FS
	// SyncEvery fsyncs the file after every N records (in addition to the
	// per-record flush to the OS). 0 syncs only at Close — the historical
	// behavior. Campaigns that must survive whole-machine crashes, and the
	// chaos soak, set 1.
	SyncEvery int
}

// Open creates (or, with opts.Resume, continues) the journal at path for a
// campaign with the given config hash. On resume, the existing header must
// match configHash exactly — ErrStale otherwise — every well-formed
// record is loaded for Lookup (corrupt lines are skipped with a warning),
// and a torn final line left by a crash mid-append is truncated away
// before the file is reopened for appending.
func Open(path, configHash string, opts Options) (*Journal, error) {
	warn := opts.Warn
	if warn == nil {
		warn = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "journal: "+format+"\n", args...)
		}
	}
	fs := opts.FS
	if fs == nil {
		fs = durable.OS()
	}
	j := &Journal{
		entries:   map[string]json.RawMessage{},
		path:      path,
		config:    configHash,
		warn:      warn,
		syncEvery: opts.SyncEvery,
	}

	// Exclusive ownership comes first, before any byte of the file is
	// trusted: two concurrent campaigns appending to one journal would
	// interleave records silently, and each would replay the other's.
	unlock, err := fs.Lock(path)
	if errors.Is(err, durable.ErrLocked) {
		return nil, fmt.Errorf("%w: %s (another campaign holds %s)", ErrLocked, path, durable.LockPath(path))
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.unlock = unlock
	opened := false
	defer func() {
		if !opened {
			j.releaseLock()
		}
	}()

	if _, err := fs.Stat(path); err == nil {
		if !opts.Resume {
			return nil, fmt.Errorf("%w: %s (pass resume to continue it, or remove it)", ErrExists, path)
		}
		if err := j.load(fs, path, configHash); err != nil {
			return nil, err
		}
		if j.tornBytes > 0 {
			// The crash left a partial final line. Cut it off before the
			// writer appends, or the next record would concatenate onto
			// the torn line and both would fail checksum on the following
			// resume.
			if err := fs.Truncate(path, j.validSize); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
			}
			j.warn("%s: truncated torn tail (%d bytes) before append", path, j.tornBytes)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: stat %s: %w", path, err)
	}

	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if len(j.entries) == 0 && !j.headerWritten {
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	opened = true
	return j, nil
}

// releaseLock releases the advisory lock exactly once.
func (j *Journal) releaseLock() {
	if j.unlock != nil {
		j.unlock()
		j.unlock = nil
	}
}

func (j *Journal) writeHeader() error {
	line, err := json.Marshal(header{Kind: "header", Version: FormatVersion, Config: j.config})
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: write header: %w", err)
	}
	return j.w.Flush()
}

// load reads an existing journal, validating the header and every record,
// and computes the framing (validSize, tornBytes) the torn-tail repair
// needs.
func (j *Journal) load(fs durable.FS, path, configHash string) error {
	f, err := fs.OpenRead(path)
	if err != nil {
		return fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<20)
	lineNo := 0
	for {
		raw, err := r.ReadBytes('\n')
		if err != nil {
			if err != io.EOF {
				return fmt.Errorf("journal: read %s: %w", path, err)
			}
			// A final line without '\n' is a torn tail: a crash landed
			// mid-append. Nothing on it can be trusted (even a line that
			// would parse may be a prefix of a longer record), so it is
			// not loaded; Open truncates it before the writer appends.
			j.tornBytes = int64(len(raw))
			return nil
		}
		lineNo++
		j.validSize += int64(len(raw))

		if lineNo == 1 {
			var h header
			if err := json.Unmarshal(raw, &h); err != nil || h.Kind != "header" {
				return fmt.Errorf("%w: first line is not a journal header", ErrNoHeader)
			}
			if h.Version != FormatVersion {
				return fmt.Errorf("%w: journal format v%d, this build writes v%d", ErrStale, h.Version, FormatVersion)
			}
			if h.Config != configHash {
				return fmt.Errorf("%w: journal %.12s…, campaign %.12s…", ErrStale, h.Config, configHash)
			}
			j.headerWritten = true
			continue
		}

		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Kind != "entry" || rec.Key == "" {
			j.warn("%s:%d: skipping unparseable record: %v", path, lineNo, err)
			continue
		}
		if checksum(rec.Key, rec.Payload) != rec.Sum {
			j.warn("%s:%d: skipping record %q with bad checksum", path, lineNo, rec.Key)
			continue
		}
		if _, seen := j.entries[rec.Key]; seen {
			j.duplicates++
		}
		j.entries[rec.Key] = append(json.RawMessage(nil), rec.Payload...)
	}
}

func checksum(key string, payload []byte) string {
	h := sha256.New()
	io.WriteString(h, key)
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Len returns the number of distinct keys currently held.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Status is a journal's typed lifecycle state, for callers that need to
// report or branch on journal health without poking at errors: a
// suspended job's checkpoint is resumable while "active" or "closed",
// and degrades to re-execution when "poisoned".
type Status string

const (
	// StatusActive: open and accepting Record appends.
	StatusActive Status = "active"
	// StatusClosed: cleanly closed; every recorded unit is durable and a
	// reopen with Resume replays all of them.
	StatusClosed Status = "closed"
	// StatusPoisoned: a write/flush/fsync failed; the on-disk prefix up to
	// the failure is still replayable, later units are not.
	StatusPoisoned Status = "poisoned"
)

// Status reports the journal's current lifecycle state. Poisoned is
// sticky and dominates closed — a journal closed after poisoning still
// reports poisoned, because that is what the next resume will face.
func (j *Journal) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.failure != nil:
		return StatusPoisoned
	case j.closed:
		return StatusClosed
	default:
		return StatusActive
	}
}

// Duplicates returns how many re-recorded keys load observed on resume:
// appends beyond the first for the same key. The campaign's units are
// deterministic, so duplicates decode identically and the last one wins;
// the count is reported so a resume can account for every appended line.
func (j *Journal) Duplicates() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.duplicates
}

// Failed returns the sticky error that poisoned the journal (wrapping
// ErrJournalFailed), or nil while the journal is healthy.
func (j *Journal) Failed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failure
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Lookup returns the raw payload recorded for key, if any.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.entries[key]
	return p, ok
}

// LookupInto unmarshals the payload recorded for key into v. A payload
// that fails to unmarshal is reported as a miss (with a warning), so the
// caller recomputes and re-records it — a corrupt entry is never trusted.
func (j *Journal) LookupInto(key string, v any) bool {
	p, ok := j.Lookup(key)
	if !ok {
		return false
	}
	if err := json.Unmarshal(p, v); err != nil {
		j.warn("record %q does not decode into %T, recomputing: %v", key, v, err)
		return false
	}
	if j.OnReplay != nil {
		j.OnReplay(key)
	}
	journalReplays.Inc()
	return true
}

// poisonLocked marks the journal permanently failed (caller holds j.mu).
// fsyncgate semantics: the failed operation may have lost buffered data in
// a way no retry can detect, so the journal never writes again and every
// later Record/Sync returns the same sticky error.
func (j *Journal) poisonLocked(op, key string, cause error) error {
	// Both ends of the chain stay classifiable: errors.Is(err,
	// ErrJournalFailed) for the degrade decision, errors.Is(err, cause)
	// for diagnosing what the filesystem actually did.
	j.failure = fmt.Errorf("%w: %s %q: %w", ErrJournalFailed, op, key, cause)
	journalFailures.Inc()
	telemetry.Emit(telemetry.Event{Kind: "journal.failed", ID: key, Detail: op + ": " + cause.Error()})
	return j.failure
}

// Record persists one completed unit of work under key, flushing it to the
// OS before returning so a later crash cannot lose it (and fsyncing every
// Options.SyncEvery records). Re-recording an existing key overwrites the
// in-memory copy and appends a new line (the campaign's units are
// deterministic, so both lines decode identically). After any write,
// flush, or fsync failure the journal is poisoned: this and every later
// Record returns an error wrapping ErrJournalFailed and nothing more is
// written.
func (j *Journal) Record(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal %q: %w", key, err)
	}
	line, err := json.Marshal(record{Kind: "entry", Key: key, Payload: payload, Sum: checksum(key, payload)})
	if err != nil {
		return fmt.Errorf("journal: marshal record %q: %w", key, err)
	}

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if j.failure != nil {
		err := j.failure
		j.mu.Unlock()
		return err
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		err = j.poisonLocked("append", key, err)
		j.mu.Unlock()
		return err
	}
	if err := j.w.Flush(); err != nil {
		err = j.poisonLocked("flush", key, err)
		j.mu.Unlock()
		return err
	}
	if j.syncEvery > 0 {
		j.sinceSync++
		if j.sinceSync >= j.syncEvery {
			if err := j.f.Sync(); err != nil {
				err = j.poisonLocked("sync", key, err)
				j.mu.Unlock()
				return err
			}
			j.sinceSync = 0
		}
	}
	j.entries[key] = payload
	j.records++
	n := j.records
	hook := j.OnRecord
	j.mu.Unlock()

	if hook != nil {
		hook(n, key)
	}
	journalAppends.Inc()
	telemetry.Emit(telemetry.Event{Kind: "journal.append", ID: key, Value: float64(n)})
	return nil
}

// Sync flushes buffered records and forces them to stable storage. A
// failure poisons the journal exactly like a failed Record: the fsync is
// never retried.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.failure != nil {
		return j.failure
	}
	if err := j.w.Flush(); err != nil {
		return j.poisonLocked("flush", "", err)
	}
	if err := j.f.Sync(); err != nil {
		return j.poisonLocked("sync", "", err)
	}
	j.sinceSync = 0
	return nil
}

// Close flushes buffered records and syncs the file to disk. On a
// poisoned journal it only releases the descriptor — never re-flushing or
// re-fsyncing a file whose durability is unknown — and returns the sticky
// failure.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	// The advisory lock is released whatever else happens: a poisoned or
	// half-closed journal that kept its lock would block its own resume.
	defer j.releaseLock()
	if j.failure != nil {
		j.f.Close()
		return j.failure
	}
	var first error
	if err := j.w.Flush(); err != nil {
		first = err
	}
	if err := j.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := j.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// ConfigHash digests an arbitrary configuration value (typically a struct
// of scale + seeds + code revision) into the hex hash the journal header
// pins. Two configurations hash equal iff their canonical JSON is equal.
func ConfigHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Config values are plain structs assembled by our own callers;
		// an unmarshalable one is a programming error.
		panic(fmt.Sprintf("journal: config not hashable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
