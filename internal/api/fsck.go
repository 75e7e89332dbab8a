package api

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"voltsmooth/internal/durable"
	"voltsmooth/internal/telemetry"
)

// Fsck (DESIGN §13) is the store scrubber behind `vsmoothd -fsck`: an
// offline sweep over the layout Store documents, classifying everything a
// crash can leave behind and — with repair — removing what is provably
// garbage. It is deliberately conservative: anything a live process might
// still be using (seq.lock, lock sidecars next to unfinished jobs) is
// reported but never touched, because removing a lock file races a
// concurrent locker onto a dead inode (see internal/durable).
//
// Issue classes:
//
//   - tmp orphan: a ".<name>.tmp-*" temp file left by a crash inside an
//     atomic replace (durable.IsTemp), including the torn temp files the
//     chaos plane leaves at a kill-point. Always safe to remove — rename
//     is atomic, so an orphan was by definition never committed.
//   - stale lock: a "*.lock" flock sidecar (lease.json.lock,
//     journal.jsonl.lock) next to a TERMINAL job. Terminal jobs are never
//     claimed or resumed again, so the sidecar is dead weight; next to an
//     unfinished job the same file may be held right now and is left alone.
//   - torn cache: a cache entry LoadCached rejects (unparseable, key
//     mismatch, no renders). Serving it is already impossible — every
//     reader treats defects as a miss — so repair just deletes the dir and
//     the next identical spec re-publishes it.
//   - corrupt result: a jobs/<id>/result.json that exists but does not
//     parse. Report-only: recovery already treats it as unfinished and
//     re-runs the job from its journal, which rewrites the file — deleting
//     it here would add nothing and lose the evidence.

// FsckIssue is one finding: what was wrong, where, and whether this run
// repaired it.
type FsckIssue struct {
	Kind     string `json:"kind"` // tmp_orphan | stale_lock | torn_cache | corrupt_result
	Path     string `json:"path"`
	Detail   string `json:"detail,omitempty"`
	Repaired bool   `json:"repaired"`
}

// FsckReport summarizes one scrub pass.
type FsckReport struct {
	Issues   []FsckIssue `json:"issues"`
	Repaired int         `json:"repaired"`
}

// Fsck sweeps the store and returns every issue found; with repair it also
// removes what is provably safe to remove. warn receives progress lines
// (nil is fine). The scan itself only fails on an unreadable store —
// individual defective entries ARE the findings, not errors.
func (s *Store) Fsck(repair bool, warn func(format string, args ...any)) (*FsckReport, error) {
	if warn == nil {
		warn = func(string, ...any) {}
	}
	rep := &FsckReport{}
	record := func(kind, path, detail string, fix func() error) {
		iss := FsckIssue{Kind: kind, Path: path, Detail: detail}
		if repair && fix != nil {
			if err := fix(); err != nil {
				warn("fsck: repair %s: %v", path, err)
			} else {
				iss.Repaired = true
				rep.Repaired++
			}
		}
		rep.Issues = append(rep.Issues, iss)
	}

	// Temp orphans in the store root (seq counter writes land here).
	s.sweepTmp(s.dir, record)

	// Per-job sweep: temp orphans always; lock sidecars only when the job
	// is provably terminal.
	jobsDir := filepath.Join(s.dir, "jobs")
	jobs, err := os.ReadDir(jobsDir)
	if err != nil {
		return nil, fmt.Errorf("api: fsck: scan jobs: %w", err)
	}
	for _, de := range jobs {
		if !de.IsDir() {
			continue
		}
		id := de.Name()
		dir := s.jobDir(id)
		s.sweepTmp(dir, record)

		terminal := false
		if _, lerr := s.LoadResult(id); lerr == nil {
			terminal = true
		} else if !errors.Is(lerr, os.ErrNotExist) {
			record("corrupt_result", filepath.Join(dir, "result.json"), telemetry.FirstLine(lerr), nil)
		}
		if !terminal {
			continue
		}
		for _, guarded := range []string{"lease.json", "journal.jsonl"} {
			p := durable.LockPath(filepath.Join(dir, guarded))
			if _, serr := os.Stat(p); serr == nil {
				record("stale_lock", p, "lock sidecar next to terminal job "+id,
					func() error { return os.Remove(p) })
			}
		}
	}

	// Cache sweep: temp orphans plus entries LoadCached would reject.
	cacheDir := filepath.Join(s.dir, "cache")
	entries, err := os.ReadDir(cacheDir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("api: fsck: scan cache: %w", err)
	}
	for _, de := range entries {
		if !de.IsDir() {
			continue
		}
		fp := de.Name()
		dir := s.cacheDir(fp)
		s.sweepTmp(dir, record)
		if _, lerr := s.LoadCached(fp); lerr != nil && !errors.Is(lerr, os.ErrNotExist) {
			record("torn_cache", dir, telemetry.FirstLine(lerr),
				func() error { return os.RemoveAll(dir) })
		}
	}
	return rep, nil
}

// sweepTmp records (and under repair, removes) atomic-replace temp
// orphans directly inside dir (durable.IsTemp). Nothing else matches
// that shape, and a live writer's temp file lives for microseconds — an
// orphan found by an offline scrub is from a dead process.
func (s *Store) sweepTmp(dir string, record func(kind, path, detail string, fix func() error)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !durable.IsTemp(name) {
			continue
		}
		p := filepath.Join(dir, name)
		record("tmp_orphan", p, "interrupted atomic write",
			func() error { return os.Remove(p) })
	}
}
