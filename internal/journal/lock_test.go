package journal

import (
	"errors"
	"path/filepath"
	"testing"

	"voltsmooth/internal/durable"
)

// TestSecondOpenerFailsFastWithErrLocked pins the journal-collision fix:
// two campaigns pointed at the same journal file used to interleave
// records silently (each would then replay the other's units); now the
// second opener is refused outright with the typed ErrLocked while the
// first holds the file, and succeeds again once the first closes.
func TestSecondOpenerFailsFastWithErrLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	hash := ConfigHash("cfg")

	j1, err := Open(path, hash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Record("unit/0", map[string]int{"n": 0}); err != nil {
		t.Fatal(err)
	}

	// The collision: a second campaign opens the same path while the
	// first is live. Both the fresh-open and the resume flavors must be
	// refused — a resume that shared the file would be just as corrupting.
	if _, err := Open(path, hash, Options{Resume: true}); !errors.Is(err, ErrLocked) {
		t.Fatalf("concurrent resume-open returned %v, want ErrLocked", err)
	}
	if _, err := Open(path, hash, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("concurrent fresh-open returned %v, want ErrLocked", err)
	}

	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The lock dies with its holder: after Close the file is free, and
	// the resumed journal holds the first campaign's record.
	j2, err := Open(path, hash, Options{Resume: true})
	if err != nil {
		t.Fatalf("open after close still refused: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("resumed %d units, want 1", j2.Len())
	}
}

// TestLockReleasedWhenOpenFails: an Open refused after the lock was taken
// (here: stale config hash) must release it, or the rejected opener would
// block every later legitimate one.
func TestLockReleasedWhenOpenFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	j, err := Open(path, ConfigHash("cfg-a"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path, ConfigHash("cfg-b"), Options{Resume: true}); !errors.Is(err, ErrStale) {
		t.Fatalf("mismatched resume returned %v, want ErrStale", err)
	}
	// The stale rejection above must not have kept the lock.
	j2, err := Open(path, ConfigHash("cfg-a"), Options{Resume: true})
	if err != nil {
		t.Fatalf("open after stale rejection: %v", err)
	}
	j2.Close()
}

// TestLockReleasedOnPoisonedClose: Close on a poisoned journal only
// releases the descriptor — but it must still release the advisory lock,
// or a degraded campaign could never resume its own journal in-process.
func TestLockReleasedOnPoisonedClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	hash := ConfigHash("cfg")

	fs := failingFS{FS: durable.OS()}
	j, err := Open(path, hash, Options{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("unit/0", map[string]int{"n": 0}); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("record through failing FS returned %v, want ErrJournalFailed", err)
	}
	if err := j.Close(); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("close of poisoned journal returned %v, want the sticky failure", err)
	}

	j2, err := Open(path, hash, Options{Resume: true})
	if err != nil {
		t.Fatalf("poisoned close kept the lock: %v", err)
	}
	j2.Close()
}

// TestOnReplayObservesEveryReplayedUnit: the per-journal replay observer
// fires once per successful LookupInto — the job-scoped counting seam the
// campaign service uses instead of the process-wide instruments.
func TestOnReplayObservesEveryReplayedUnit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	hash := ConfigHash("cfg")

	j, err := Open(path, hash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(key(i), map[string]int{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, hash, Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var replayed []string
	r.OnReplay = func(k string) { replayed = append(replayed, k) }
	var v map[string]int
	for i := 0; i < 3; i++ {
		if !r.LookupInto(key(i), &v) {
			t.Fatalf("%s lost across reopen", key(i))
		}
	}
	if r.LookupInto("unit/missing", &v) {
		t.Fatal("missing key replayed")
	}
	if len(replayed) != 3 {
		t.Fatalf("OnReplay fired %d times (%q), want 3", len(replayed), replayed)
	}
}

func key(i int) string { return "unit/" + string(rune('0'+i)) }

// failingFS locks like the real filesystem but fails every data write
// after the header, poisoning the journal.
type failingFS struct{ durable.FS }

func (f failingFS) OpenAppend(name string) (durable.File, error) {
	inner, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &failAfterFirstWrite{File: inner}, nil
}

type failAfterFirstWrite struct {
	durable.File
	writes int
}

func (f *failAfterFirstWrite) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("injected write failure")
	}
	return f.File.Write(p)
}
