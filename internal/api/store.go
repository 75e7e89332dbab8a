package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"voltsmooth/internal/durable"
)

// Store is the durable job store under one directory:
//
//	<dir>/jobs/<id>/job.json       submitted spec + client (written, fsynced,
//	                               and only then acknowledged with 202)
//	<dir>/jobs/<id>/journal.jsonl  the job's config-hash-pinned session
//	                               journal (internal/journal format)
//	<dir>/jobs/<id>/result.json    terminal record; its presence marks the
//	                               job finished across restarts
//	<dir>/jobs/<id>/lease.json     ownership record (internal/lease)
//	<dir>/jobs/<id>/lease.log      lease history (claims, renewals, fences)
//	<dir>/seq                      flock-guarded job-ID counter shared by every
//	                               process on the store (AllocateID)
//
// Every file is written through internal/durable: records by its atomic
// replace (tmp+fsync+rename), on the real filesystem even when a chaos
// plane is wired under the journals and leases.
//
// Recovery on boot is a pure function of this layout: a job with a result
// is terminal and served as-is, a job without one resumes from its journal
// once its lease is free.
type Store struct {
	dir string
}

// JobRecord is the durable admission record (job.json).
type JobRecord struct {
	ID            string  `json:"id"`
	Client        string  `json:"client"`
	Spec          JobSpec `json:"spec"`
	CreatedUnixNS int64   `json:"created_unix_ns"`
}

// StoredJob is one Scan result: the admission record plus the terminal
// result, if the job reached one.
type StoredJob struct {
	Record JobRecord
	Result *Result // nil: the job never finished — re-enqueue and resume
}

// OpenStore opens (creating if needed) the job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("api: store directory is required")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("api: create job store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

// JournalPath returns the job's session-journal path.
func (s *Store) JournalPath(id string) string {
	return filepath.Join(s.jobDir(id), "journal.jsonl")
}

// CreateJob persists the admission record durably. It must complete
// before the submission is acknowledged: an acked job survives a crash.
func (s *Store) CreateJob(rec JobRecord) error {
	if err := os.MkdirAll(s.jobDir(rec.ID), 0o755); err != nil {
		return fmt.Errorf("api: create job dir: %w", err)
	}
	return persistJSON(filepath.Join(s.jobDir(rec.ID), "job.json"), rec)
}

// WriteResult persists the terminal record atomically (tmp + rename), so
// a crash mid-write can never leave a half-result that recovery would
// mistake for a finished job.
func (s *Store) WriteResult(res *Result) error {
	return persistJSON(filepath.Join(s.jobDir(res.ID), "result.json"), res)
}

// LoadResult reads a job's terminal record; os.ErrNotExist when the job
// never reached one.
func (s *Store) LoadResult(id string) (*Result, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "result.json"))
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("api: corrupt result for job %s: %w", id, err)
	}
	return &res, nil
}

// list returns the store's job IDs in submission order (IDs embed a
// zero-padded sequence number) without reading any job file.
func (s *Store) list() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("api: scan job store: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// load reads one job's admission record and terminal result, if any. No
// parseable job.json is an error: a crash mid-admission was never acked,
// so skipping the job breaks no promise. A corrupt result is warned about
// and not trusted; the journal replay rebuilds it bit-identically.
func (s *Store) load(id string, warn func(format string, args ...any)) (StoredJob, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "job.json"))
	if err != nil {
		return StoredJob{}, fmt.Errorf("job %s: unreadable job.json, skipping: %w", id, err)
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id {
		return StoredJob{}, fmt.Errorf("job %s: corrupt job.json, skipping", id)
	}
	sj := StoredJob{Record: rec}
	if res, err := s.LoadResult(id); err == nil {
		sj.Result = res
	} else if !errors.Is(err, os.ErrNotExist) {
		warn("job %s: %v; re-running from journal", id, err)
	}
	return sj, nil
}

// Scan loads every stored job in submission order, skipping with a
// warning each directory load rejects.
func (s *Store) Scan(warn func(format string, args ...any)) ([]StoredJob, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	ids, err := s.list()
	if err != nil {
		return nil, err
	}
	var out []StoredJob
	for _, id := range ids {
		sj, err := s.load(id, warn)
		if err != nil {
			warn("%v", err)
			continue
		}
		out = append(out, sj)
	}
	return out, nil
}

// NextSeq returns the next job sequence number: one past the highest
// sequence among stored jobs. It is a fallback for seeding the durable
// counter — allocation itself must go through AllocateID, which holds the
// store-level lock two processes can both respect.
func (s *Store) NextSeq() (int, error) {
	stored, err := s.Scan(nil)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, sj := range stored {
		if n, ok := seqOf(sj.Record.ID); ok && n > max {
			max = n
		}
	}
	return max + 1, nil
}

// AllocateID hands out the next job ID under a store-level flock'd counter
// file (<dir>/seq), so any number of processes sharing the store can never
// race to the same sequence. The flock is BLOCKING — allocation is a
// microsecond transaction and every caller must get an answer — unlike the
// non-blocking claim locks of the lease layer. The counter is seeded from
// a store scan the first time a store without one allocates.
func (s *Store) AllocateID() (string, error) {
	seqPath := filepath.Join(s.dir, "seq")
	release, err := durable.Lock(seqPath, true)
	if err != nil {
		return "", fmt.Errorf("api: lock seq counter: %w", err)
	}
	defer release()

	next := 0
	data, err := os.ReadFile(seqPath)
	switch {
	case err == nil:
		n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || n < 1 {
			return "", fmt.Errorf("api: corrupt seq counter %q in %s", strings.TrimSpace(string(data)), seqPath)
		}
		next = n
	case errors.Is(err, os.ErrNotExist):
		if next, err = s.NextSeq(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("api: read seq counter: %w", err)
	}
	if err := persistJSON(seqPath, next+1); err != nil {
		return "", fmt.Errorf("api: advance seq counter: %w", err)
	}
	return JobID(next), nil
}

// JobID formats a sequence number as a job ID ("j000042"): zero-padded so
// lexical order is submission order.
func JobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// seqOf parses a job ID's sequence. Only "j" + decimal digits qualifies:
// anything else ("j-12", "jx", a stray directory name) must not feed the
// sequence computation, where a negative or bogus parse could poison the
// next allocation.
func seqOf(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		// All-digit but overflowing int: not a sequence we minted.
		return 0, false
	}
	return n, true
}

// persistJSON writes v as indented JSON to path by durable's atomic
// replace, so the file either has its old contents or the complete new
// ones.
func persistJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("api: marshal %s: %w", filepath.Base(path), err)
	}
	return durable.WriteFileAtomic(path, append(data, '\n'))
}
