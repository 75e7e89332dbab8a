package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"voltsmooth/internal/durable"
)

// dirNames lists a directory's entries by base name.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFileAtomicReplacesAndLeavesNoTemp: the replace lands the new
// contents whole and removes its temp file.
func TestWriteFileAtomicReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "lease.json")
	fsys := durable.OS()
	for _, data := range []string{"old\n", "new contents\n"} {
		if err := fsys.WriteFileAtomic(name, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(name)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v after two replaces, want only lease.json", names)
	}
}

// TestLeaveTempIsRecognizedDebris: the torn temp a dead writer leaves
// carries the name IsTemp (and so fsck) recognizes, and the destination
// is untouched.
func TestLeaveTempIsRecognizedDebris(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "result.json")
	if err := durable.WriteFileAtomic(name, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := durable.LeaveTemp(name, []byte("torn pre")); err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, n := range dirNames(t, dir) {
		if durable.IsTemp(n) {
			temps = append(temps, n)
		}
	}
	if len(temps) != 1 {
		t.Fatalf("temps %v, want exactly one", temps)
	}
	if got, _ := os.ReadFile(name); string(got) != "committed" {
		t.Fatalf("destination holds %q after LeaveTemp, want it untouched", got)
	}
	for _, n := range []string{"result.json", "result.json.lock", "journal.jsonl", ".hidden"} {
		if durable.IsTemp(n) {
			t.Errorf("IsTemp(%q) = true", n)
		}
	}
}

// TestAppendCreatesAndAppends: AppendFile creates the file, then appends.
func TestAppendCreatesAndAppends(t *testing.T) {
	name := filepath.Join(t.TempDir(), "lease.log")
	fsys := durable.OS()
	for _, line := range []string{"a\n", "b\n"} {
		if err := fsys.AppendFile(name, []byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(name); string(got) != "a\nb\n" {
		t.Fatalf("log holds %q, want two appended lines", got)
	}
}

// TestLockNonBlockingAndBlocking: a held sidecar refuses a non-blocking
// Lock with ErrLocked at once, a blocking Lock waits for the release, and
// the sidecar stays on disk.
func TestLockNonBlockingAndBlocking(t *testing.T) {
	name := filepath.Join(t.TempDir(), "seq")
	release, err := durable.OS().Lock(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Lock(name, false); !errors.Is(err, durable.ErrLocked) {
		t.Fatalf("second non-blocking lock returned %v, want ErrLocked", err)
	}

	acquired := make(chan func() error)
	go func() {
		r, err := durable.Lock(name, true)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		acquired <- r
	}()
	select {
	case <-acquired:
		t.Fatal("blocking lock acquired while the sidecar was held")
	case <-time.After(50 * time.Millisecond):
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	select {
	case r, ok := <-acquired:
		if ok {
			r()
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocking lock never acquired after the release")
	}
	if _, err := os.Stat(durable.LockPath(name)); err != nil {
		t.Fatalf("lock sidecar: %v", err)
	}
}
