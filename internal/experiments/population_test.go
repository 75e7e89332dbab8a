package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"voltsmooth/internal/core"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
)

// TestSharedRunsSimulatedOnce pins the run populations: the Proc3 corpus,
// the Proc3 oracle table and fig15 read one set of single and pair runs,
// so a session simulates each distinct run once, in either order, and
// every consumer still equals what a fresh session builds on its own.
func TestSharedRunsSimulatedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Proc3 corpus and table several times")
	}
	ctx := context.Background()
	sc := microScale()
	v := pdn.Proc3

	wantCorpus := NewSession(sc).Corpus(ctx, v)
	wantTable := NewSession(sc).PairTable(ctx, v)
	wantFig15 := Fig15(ctx, NewSession(sc)).Render()

	n := uint64(len(NewSession(sc).SpecProfiles()))
	mt := uint64(wantCorpus.MultiThreaded)
	w := sc.WarmupCycles
	cycles := (n+mt)*(sc.RunCycles+w) + // corpus single and multi-threaded runs
		n*n*(sc.PairCycles+w) + // pairs, shared by the corpus and the table
		n*(sc.PairCycles+w) // the table's single-core references

	for _, order := range []struct {
		name  string
		steps []func(s *Session)
	}{
		{"table-corpus-fig15", []func(s *Session){
			func(s *Session) { s.PairTable(ctx, v) },
			func(s *Session) { s.Corpus(ctx, v) },
			func(s *Session) { Fig15(ctx, s) },
		}},
		{"fig15-corpus-table", []func(s *Session){
			func(s *Session) { Fig15(ctx, s) },
			func(s *Session) { s.Corpus(ctx, v) },
			func(s *Session) { s.PairTable(ctx, v) },
		}},
	} {
		t.Run(order.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			t.Cleanup(telemetry.Install(reg, nil))
			steps, units, cells := reg.Counter("pdn.steps"), reg.Counter("exp.units"), reg.Counter("sched.cells")
			s := NewSession(sc)
			for _, step := range order.steps {
				step(s)
			}

			if got, want := steps.Load(), cycles*uint64(uarch.DefaultConfig().Substeps); got != want {
				t.Errorf("integrated %d PDN steps, want %d: one simulation per distinct run", got, want)
			}
			// Every consumer still counts each run it reads once.
			if got, want := units.Load(), n+mt+n*n; got != want {
				t.Errorf("counted %d corpus units, want %d", got, want)
			}
			if got, want := cells.Load(), n+n*n; got != want {
				t.Errorf("counted %d table cells, want %d", got, want)
			}
			if !reflect.DeepEqual(s.Corpus(ctx, v), wantCorpus) {
				t.Error("corpus differs from a fresh session's")
			}
			if !reflect.DeepEqual(s.PairTable(ctx, v), wantTable) {
				t.Error("pair table differs from a fresh session's")
			}
			if got := Fig15(ctx, s).Render(); got != wantFig15 {
				t.Errorf("fig15 differs from a fresh session's:\n%s\nwant:\n%s", got, wantFig15)
			}
		})
	}
}

// TestOldLayoutJournalIgnored pins the journal namespaces of the shared
// runs. A journal recorded under the current config fingerprint holds
// records under the keys the corpus runs and the table's pair cells used
// before the runs were shared, each with a wrong payload. Those payloads
// have no per-core counters, so the shared runs must never decode them:
// a session resuming the file renders exactly what a journal-free one
// does.
func TestOldLayoutJournalIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("renders fig15, fig17 and ext3 twice")
	}
	ctx := context.Background()
	sc := microScale()
	ids := []string{"fig15", "fig17", "ext3"}
	render := func(s *Session) map[string]string {
		out := map[string]string{}
		for _, id := range ids {
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run(ctx, e)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[id] = r.Render()
		}
		return out
	}
	want := render(NewSession(sc))

	// A wrong but well-formed scope: it tracks the default margins and
	// crosses every one of them on each of its 50 dips.
	vnom := uarch.DefaultConfig().PDN.VNom
	scope := sense.NewScope(vnom, core.DefaultMargins())
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			scope.Sample(vnom * 0.8)
		} else {
			scope.Sample(vnom)
		}
	}
	type oldCorpusRecord struct {
		Cycles uint64       `json:"cycles"`
		Scope  *sense.Scope `json:"scope"`
	}
	type oldPairCell struct {
		Droops float64           `json:"droops"`
		IPC    float64           `json:"ipc"`
		Run    resilient.RunData `json:"run"`
	}
	bogus := oldCorpusRecord{Cycles: 100, Scope: scope}
	cell := oldPairCell{Droops: 999, IPC: 9, Run: resilient.FromScope("bogus", 100, scope)}

	path := filepath.Join(t.TempDir(), "old.jsonl")
	s := NewSession(sc)
	j, err := journal.Open(path, s.ConfigFingerprint(), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	record := func(key string, v any) {
		if err := j.Record(key, v); err != nil {
			t.Fatal(err)
		}
	}
	spec := s.SpecProfiles()
	for _, a := range spec {
		record("corpus/Proc3/"+a.Name, bogus)
		for _, b := range spec {
			record("corpus/Proc3/"+a.Name+"+"+b.Name, bogus)
			record("table/Proc3/pair/"+a.Name+"+"+b.Name, cell)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := NewSession(sc)
	j, err = journal.Open(path, resumed.ConfigFingerprint(), journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	resumed.Journal = j
	got := render(resumed)
	for _, id := range ids {
		if got[id] != want[id] {
			t.Errorf("%s resumed from an old-layout journal differs from a journal-free run:\n%s\nwant:\n%s",
				id, got[id], want[id])
		}
	}
}
