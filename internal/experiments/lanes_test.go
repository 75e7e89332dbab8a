package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"voltsmooth/internal/journal"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
)

// corpusVariants are the decap variants whose corpora fig9 and fig10 read.
var corpusVariants = []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3}

// countSteps installs a fresh PDN step counter for the test's duration.
func countSteps(t *testing.T) *telemetry.Counter {
	t.Helper()
	var c telemetry.Counter
	prev := pdn.SetStepCounter(&c)
	t.Cleanup(func() { pdn.SetStepCounter(prev) })
	return &c
}

func mustLookup(t *testing.T, ids ...string) []Entry {
	t.Helper()
	out := make([]Entry, 0, len(ids))
	for _, id := range ids {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// TestReadsDeclarationsMatch holds every registered experiment to its
// reads declaration: run alone on a fresh session, it reads exactly the
// populations it declares. An undeclared read would lose its lanes (the
// population is built again for that variant alone), and a declared
// population it never reads makes every job that plans it integrate
// networks nobody uses.
func TestReadsDeclarationsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	sc := microScale()
	sc.SpecSubset = 4 // Recovery schedules SpecProfiles()[:4]
	sc.PhaseRunCycles = 60_000
	sc.MicroCycles = 8_000
	sc.WindowCycles = 20_000
	sc.Windows = 3
	sc.ImpedanceFreqs = 3
	for _, e := range All() {
		s := NewSession(sc)
		var mu sync.Mutex
		got := reads{}
		s.onRead = func(p part, v pdn.ProcVariant) {
			mu.Lock()
			got[v] |= p
			mu.Unlock()
		}
		if _, err := s.Run(context.Background(), e); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want := e.reads
		if want == nil {
			want = reads{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reads %v, declares %v", e.ID, got, want)
		}
	}
}

// TestPlannedSessionMatchesUnplanned pins the lane path to the
// one-network path: a session planned for every experiment builds all
// three corpora, the Proc3 oracle table and fig15 reflect.DeepEqual to an
// unplanned session's, from concurrent callers, and integrates exactly
// as many network-steps.
func TestPlannedSessionMatchesUnplanned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three corpora twice")
	}
	ctx := context.Background()
	sc := microScale()

	steps := countSteps(t)
	ref := NewSession(sc)
	var wantCorpora []*Corpus
	for _, v := range corpusVariants {
		wantCorpora = append(wantCorpora, ref.Corpus(ctx, v))
	}
	wantTable := ref.PairTable(ctx, pdn.Proc3)
	wantFig15 := Fig15(ctx, ref).Render()
	unplanned := steps.Load()

	steps = countSteps(t)
	s := NewSession(sc)
	s.Plan(All())
	const callers = 6
	var wg sync.WaitGroup
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func(k int) {
			defer wg.Done()
			// Each caller starts on a different consumer, so every
			// population is first requested through a different variant.
			for j := range corpusVariants {
				v := corpusVariants[(k+j)%len(corpusVariants)]
				if !reflect.DeepEqual(s.Corpus(ctx, v), wantCorpora[(k+j)%len(corpusVariants)]) {
					t.Errorf("caller %d: planned %s corpus differs from an unplanned session's", k, v.Name)
				}
			}
			if !reflect.DeepEqual(s.PairTable(ctx, pdn.Proc3), wantTable) {
				t.Errorf("caller %d: planned Proc3 pair table differs from an unplanned session's", k)
			}
			if got := Fig15(ctx, s).Render(); got != wantFig15 {
				t.Errorf("caller %d: planned fig15 differs from an unplanned session's", k)
			}
		}(k)
	}
	wg.Wait()
	if got := steps.Load(); got != unplanned {
		t.Errorf("planned session integrated %d network-steps, unplanned %d", got, unplanned)
	}
}

// TestPlanIntegratesOnlyPlannedVariants pins the plan's other half: a
// session planned for fig7 alone integrates exactly what an unplanned
// Proc100 corpus does, and no Proc25 or Proc3 network.
func TestPlanIntegratesOnlyPlannedVariants(t *testing.T) {
	ctx := context.Background()
	sc := microScale()
	steps := countSteps(t)
	NewSession(sc).Corpus(ctx, pdn.Proc100)
	want := steps.Load()

	steps = countSteps(t)
	s := NewSession(sc)
	entries := mustLookup(t, "fig7")
	s.Plan(entries)
	if _, err := s.Run(ctx, entries[0]); err != nil {
		t.Fatal(err)
	}
	if got := steps.Load(); got != want {
		t.Errorf("fig7-only session integrated %d network-steps, an unplanned Proc100 corpus %d", got, want)
	}
}

// TestPartialLaneResume resumes a planned fig9+fig10 campaign from a
// journal holding every Proc100 run, a few Proc3 runs and no Proc25 run.
// The journaled lanes replay, only the missing lanes are integrated and
// recorded, and the renders equal a journal-free session's.
func TestPartialLaneResume(t *testing.T) {
	ctx := context.Background()
	sc := microScale()
	entries := mustLookup(t, "fig9", "fig10")
	render := func(s *Session) []string {
		var out []string
		for _, e := range entries {
			r, err := s.Run(ctx, e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out = append(out, r.Render())
		}
		return out
	}
	want := render(NewSession(sc))

	// A complete journal of the Proc100 and Proc3 corpora.
	dir := t.TempDir()
	full := NewSession(sc)
	fj, err := journal.Open(filepath.Join(dir, "full.jsonl"), full.ConfigFingerprint(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fj.Close()
	// Sweep workers record concurrently, and the hook runs outside the
	// journal's lock.
	var mu sync.Mutex
	var keys []string
	fj.OnRecord = func(_ int, key string) {
		mu.Lock()
		keys = append(keys, key)
		mu.Unlock()
	}
	full.Journal = fj
	full.Corpus(ctx, pdn.Proc100)
	full.Corpus(ctx, pdn.Proc3)
	sort.Strings(keys)

	// Keep every Proc100 record and every third Proc3 one.
	path := filepath.Join(dir, "partial.jsonl")
	pj, err := journal.Open(path, full.ConfigFingerprint(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	all := map[string]bool{}
	proc3 := 0
	for _, key := range keys {
		all[key] = true
		if strings.HasPrefix(key, "corpus/Proc3/") {
			all["corpus/Proc25/"+strings.TrimPrefix(key, "corpus/Proc3/")] = true
			proc3++
			if proc3%3 != 0 {
				continue
			}
		}
		raw, _ := fj.Lookup(key)
		if err := pj.Record(key, raw); err != nil {
			t.Fatal(err)
		}
		kept[key] = true
	}
	if err := pj.Close(); err != nil {
		t.Fatal(err)
	}

	steps := countSteps(t)
	s := NewSession(sc)
	j, err := journal.Open(path, s.ConfigFingerprint(), journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recorded := map[string]bool{}
	j.OnRecord = func(_ int, key string) {
		mu.Lock()
		recorded[key] = true
		mu.Unlock()
	}
	s.Journal = j
	s.Plan(entries)
	got := render(s)
	for i := range entries {
		if got[i] != want[i] {
			t.Errorf("%s resumed from a partial journal differs from a journal-free run:\n%s\nwant:\n%s",
				entries[i].ID, got[i], want[i])
		}
	}

	missing := map[string]bool{}
	var wantSteps uint64
	for key := range all {
		if kept[key] {
			continue
		}
		missing[key] = true
		cycles := sc.RunCycles
		if strings.Contains(key, "/pair/") {
			cycles = sc.PairCycles
		}
		wantSteps += (cycles + sc.WarmupCycles) * uint64(uarch.DefaultConfig().Substeps)
	}
	if !reflect.DeepEqual(recorded, missing) {
		t.Errorf("resume recorded %d keys, want exactly the %d missing lanes", len(recorded), len(missing))
	}
	if got := steps.Load(); got != wantSteps {
		t.Errorf("resume integrated %d network-steps, want %d for the missing lanes alone", got, wantSteps)
	}
}
