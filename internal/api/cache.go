package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"voltsmooth/internal/telemetry"
)

// The cross-tenant result cache (DESIGN §12) lives under the store:
//
//	<dir>/cache/<fingerprint>/result.json
//
// keyed by JobSpec.ConfigFingerprint — everything that determines a
// campaign's rendered output and nothing that doesn't. The engine is
// deterministic (bit-identical at any worker width), so identical
// normalized specs from different tenants may share one execution: the
// first job to finish publishes its renders here, and every later
// identical spec is served instantly with byte-identical renders.
//
// Entries are written tmp+fsync+rename by the same durable atomic replace
// as result.json, and inside the publisher's lease Guard, so a fenced
// stale worker can never poison the cache. Reads validate
// the entry (parseable, fingerprint echoes the key, renders non-empty);
// any defect is a miss and the job simply executes, rewriting the entry.

// CacheEntry is one durable cache record.
type CacheEntry struct {
	// Fingerprint echoes the directory key; a mismatch (a torn or
	// misplaced file) invalidates the entry.
	Fingerprint string `json:"fingerprint"`
	// SourceJob is the job whose execution produced these renders —
	// surfaced as CacheSource in statuses served from this entry.
	SourceJob string `json:"source_job"`
	// Renders / Attempts / Units mirror the source job's Result.
	Renders       map[string]string `json:"renders"`
	Attempts      map[string]int    `json:"attempts,omitempty"`
	Units         uint64            `json:"units"`
	CreatedUnixNS int64             `json:"created_unix_ns"`
}

func (s *Store) cacheDir(fp string) string { return filepath.Join(s.dir, "cache", fp) }

// CachePath returns the durable cache entry path for a fingerprint.
func (s *Store) CachePath(fp string) string {
	return filepath.Join(s.cacheDir(fp), "result.json")
}

// WriteCached publishes a cache entry atomically (tmp+fsync+rename): a
// reader sees the old entry, the new entry, or none — never a torn one.
func (s *Store) WriteCached(e *CacheEntry) error {
	if e.Fingerprint == "" {
		return errors.New("api: cache entry without a fingerprint")
	}
	if err := os.MkdirAll(s.cacheDir(e.Fingerprint), 0o755); err != nil {
		return fmt.Errorf("api: create cache dir: %w", err)
	}
	return persistJSON(s.CachePath(e.Fingerprint), e)
}

// LoadCached reads and validates the cache entry for a fingerprint.
// os.ErrNotExist when none exists; any other defect — unparseable JSON,
// a fingerprint that doesn't echo the key, empty renders — is an error
// too, and callers treat every error as a miss. A partial result must
// never be served.
func (s *Store) LoadCached(fp string) (*CacheEntry, error) {
	data, err := os.ReadFile(s.CachePath(fp))
	if err != nil {
		return nil, err
	}
	var e CacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("api: corrupt cache entry %s: %w", fp, err)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("api: cache entry %s claims fingerprint %q", fp, e.Fingerprint)
	}
	if len(e.Renders) == 0 {
		return nil, fmt.Errorf("api: cache entry %s has no renders", fp)
	}
	return &e, nil
}

// EvictCachedOver bounds the cache at max fingerprints, removing the
// oldest (by CreatedUnixNS) beyond it; unreadable entries evict first.
// Returns how many entries were removed. max <= 0 means unbounded.
func (s *Store) EvictCachedOver(max int) (int, error) {
	if max <= 0 {
		return 0, nil
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "cache"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("api: scan cache: %w", err)
	}
	type aged struct {
		fp      string
		created int64 // 0 for unreadable entries — oldest of all
	}
	var all []aged
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		a := aged{fp: de.Name()}
		if e, err := s.LoadCached(de.Name()); err == nil {
			a.created = e.CreatedUnixNS
		}
		all = append(all, a)
	}
	if len(all) <= max {
		return 0, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].created < all[j].created })
	evicted := 0
	for _, a := range all[:len(all)-max] {
		if err := os.RemoveAll(s.cacheDir(a.fp)); err != nil {
			return evicted, fmt.Errorf("api: evict cache entry %s: %w", a.fp, err)
		}
		evicted++
	}
	return evicted, nil
}

// cacheEnabled reports whether the dedup layer is on for this server.
func (s *Server) cacheEnabled() bool { return !s.cfg.DisableCache }

// cacheLookup returns the validated cache entry for fp, or nil on any
// kind of miss. Defective entries are logged and ignored — the job
// executes and its publish rewrites the entry.
func (s *Server) cacheLookup(fp string) *CacheEntry {
	if !s.cacheEnabled() || fp == "" {
		return nil
	}
	e, err := s.store.LoadCached(fp)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.logf("cache: %v (ignoring entry; job will execute)", err)
		}
		return nil
	}
	return e
}

// finishFromCache completes jb from a cache entry without executing it:
// the entry's renders become the job's terminal Result, marked Cached
// with the source job's ID. The result write goes through commitResult,
// so a job a worker claimed is still fenced by its lease.
func (s *Server) finishFromCache(jb *job, e *CacheEntry) {
	res := &Result{
		State:       StateDone,
		Renders:     e.Renders,
		Attempts:    e.Attempts,
		Units:       e.Units,
		Cached:      true,
		CacheSource: e.SourceJob,
	}
	if !jb.stamp(res) {
		return
	}
	if e.CreatedUnixNS > jb.created.UnixNano() {
		// The entry's execution was still in flight when this job arrived.
		apiCacheFollowed.Inc()
		jb.trace.Emit(telemetry.Event{Kind: "api.job.cache_followed", ID: jb.id,
			Detail: "served from in-flight execution of " + e.SourceJob})
	} else {
		apiCacheHits.Inc()
		jb.trace.Emit(telemetry.Event{Kind: "api.job.cache_hit", ID: jb.id,
			Detail: "served from cached execution of " + e.SourceJob})
	}
	s.commitResult(jb, res)
}

// dedupLeader returns the job that should execute fingerprint fp: the
// lowest-ID non-terminal, non-canceled job with that fingerprint. Job IDs
// are minted by one store-level counter, so every server on the store
// computes the same leader from its mirror of the store — the rule needs
// no coordination beyond the scanner that already exists. nil when no live
// job carries fp.
func (s *Server) dedupLeader(fp string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedupLeaderLocked(fp)
}

// dedupLeaderLocked is dedupLeader with Server.mu already held.
func (s *Server) dedupLeaderLocked(fp string) *job {
	if fp == "" {
		return nil
	}
	var leader *job
	for _, jb := range s.jobs {
		if jb.fingerprint != fp || (leader != nil && jb.id > leader.id) {
			continue
		}
		jb.mu.Lock()
		live := !jb.state.terminal() && !jb.canceled
		jb.mu.Unlock()
		if live {
			leader = jb
		}
	}
	return leader
}

// park holds a job that stepped back behind an identical in-flight job
// until the next terminal transition of its fingerprint (unpark). A
// parked job holds no queue slot, and the scanner skips it. The
// leader is re-checked under Server.mu, the lock unpark takes, so a
// leader that went terminal since runJob's check cannot strand the job:
// it is requeued at once.
func (s *Server) park(jb *job) {
	fp := jb.fingerprint
	s.mu.Lock()
	if l := s.dedupLeaderLocked(fp); l != nil && l != jb {
		if !slices.Contains(s.parked[fp], jb) {
			s.parked[fp] = append(s.parked[fp], jb)
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.requeue(jb)
}

// unpark requeues every job parked on fingerprint fp, after a job that
// carries fp went terminal. Each one's next pick serves it from the
// finished job's cache entry, or, when that job failed or was canceled,
// lets the lowest-ID one execute. A parked job that went terminal itself
// is dropped by requeue.
func (s *Server) unpark(fp string) {
	s.mu.Lock()
	parked := s.parked[fp]
	delete(s.parked, fp)
	s.mu.Unlock()
	for _, jb := range parked {
		s.requeue(jb)
	}
}
