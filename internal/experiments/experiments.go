// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner drives the library end-to-end (workload →
// chip → PDN → scope → analysis) at a configurable scale and returns a
// typed result that renders to the same rows/series the paper reports.
//
// The package is the reproduction harness: cmd/vsmooth exposes the runners
// on the command line, the test suite asserts every runner's qualitative
// claims (who wins, by roughly what factor, where crossovers fall), and
// bench_test.go at the repository root times them.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"voltsmooth/internal/workload"
)

// Renderer is implemented by every experiment result.
type Renderer interface {
	// Render returns the experiment's tables as human-readable text.
	Render() string
}

// Entry describes one registered experiment. Run observes ctx at its
// natural phase boundaries (per run, per window, per quantum); a cancelled
// context unwinds as an abort panic that Session.Run translates back into
// the context's error.
type Entry struct {
	ID    string
	Title string
	Run   func(ctx context.Context, s *Session) Renderer

	// reads declares the shared run populations Run reads, so that
	// Session.Plan can build each one once for every variant a batch
	// reads (TestReadsDeclarationsMatch holds each entry to it).
	reads reads
}

var registry = map[string]Entry{}

// register adds an experiment and declares the run populations it reads
// (nil when it reads none).
func register(id, title string, run func(ctx context.Context, s *Session) Renderer, r reads) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = Entry{ID: id, Title: title, Run: run, reads: r}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Entry, error) {
	e, ok := registry[id]
	if !ok {
		return Entry{}, fmt.Errorf("experiments: unknown experiment %q (try `list`)", id)
	}
	return e, nil
}

// All returns every registered experiment sorted by id (figures first,
// then tables).
func All() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// lessID orders fig1 < fig2 < … < fig19 < tab1.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

// splitID splits an experiment id into its alphabetic prefix and numeric
// suffix. An id with no numeric suffix reports num = -1, ordering it
// before every numbered id that shares its prefix ("ext" < "ext1") rather
// than aliasing with a "0" suffix.
func splitID(s string) (prefix string, num int) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	if i == len(s) {
		return s, -1
	}
	if _, err := fmt.Sscanf(s[i:], "%d", &num); err != nil {
		return s, -1
	}
	return s[:i], num
}

// mustProfile returns the named benchmark profile. The experiments name
// their programs as constants, so an unknown name is a bug.
func mustProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
