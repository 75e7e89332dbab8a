package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCorruptRecords throws arbitrary bytes at the resume loader
// after one intact record. Whatever the corruption — truncated JSON,
// wrong checksums, binary garbage, embedded newlines — resume must never
// crash and never fail: corrupt lines are skipped (their units recompute
// bit-identically), the intact record survives, and the repaired journal
// accepts appends that parse on the next reopen.
func FuzzLoadCorruptRecords(f *testing.F) {
	hash := ConfigHash("fuzz-cfg")
	dir := f.TempDir()
	good := func(t *testing.T, path string) {
		t.Helper()
		j, err := Open(path, hash, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("good/0", payload{N: 7}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f.Add([]byte(`{"kind":"entry","key":"torn`))                                 // torn mid-append
	f.Add([]byte(`{"kind":"entry","key":"x","payload":{},"sum":"beef"}` + "\n")) // wrong checksum
	f.Add([]byte("\x00\xffgarbage\x01\n{\"half\":"))                             // binary garbage
	f.Add([]byte("\n\n\n"))                                                      // blank lines
	f.Add([]byte(`{"kind":"header","config":"other"}` + "\n"))                   // header impostor mid-file

	var n int
	f.Fuzz(func(t *testing.T, corrupt []byte) {
		n++
		path := filepath.Join(dir, fmt.Sprintf("fuzz-%d.journal", n))
		good(t, path)
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(corrupt); err != nil {
			t.Fatal(err)
		}
		fh.Close()

		j, err := Open(path, hash, Options{Resume: true, Warn: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("resume failed on corrupt tail %q: %v", corrupt, err)
		}
		var p payload
		if !j.LookupInto("good/0", &p) || p.N != 7 {
			t.Fatalf("intact record lost under corrupt tail %q", corrupt)
		}
		if err := j.Record("after/1", payload{N: 1}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(path, hash, Options{Resume: true, Warn: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("second resume failed: %v", err)
		}
		defer r.Close()
		if !r.LookupInto("after/1", &p) || p.N != 1 {
			t.Fatalf("record appended after repair lost under corrupt tail %q", corrupt)
		}
	})
}
