package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/workload"
)

// microScale is a deliberately small scale for determinism tests that
// rebuild corpora and tables from scratch several times.
func microScale() Scale {
	s := Tiny()
	s.Name = "micro"
	s.SpecSubset = 3
	s.RunCycles = 8_000
	s.PairCycles = 6_000
	s.WarmupCycles = 1_000
	s.RandomBatches = 4
	return s
}

// TestCorpusParallelMatchesSerial asserts the tentpole guarantee on the
// corpus path: workers=1 and workers=4 produce bit-identical corpora
// (runs, merged scope, and counts), because every run is independently
// seeded and the fold happens in the fixed job order.
func TestCorpusParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus builds are slow")
	}
	serialSess := NewSession(microScale())
	serialSess.Workers = 1
	parSess := NewSession(microScale())
	parSess.Workers = 4

	serial := serialSess.Corpus(context.Background(), pdn.Proc3)
	par := parSess.Corpus(context.Background(), pdn.Proc3)

	if serial.SingleThreaded != par.SingleThreaded ||
		serial.MultiThreaded != par.MultiThreaded ||
		serial.MultiProgram != par.MultiProgram {
		t.Errorf("run counts differ: %d/%d/%d vs %d/%d/%d",
			serial.SingleThreaded, serial.MultiThreaded, serial.MultiProgram,
			par.SingleThreaded, par.MultiThreaded, par.MultiProgram)
	}
	if !reflect.DeepEqual(serial.Runs, par.Runs) {
		t.Error("corpus run data differ between serial and parallel builds")
	}
	if !reflect.DeepEqual(serial.Merged, par.Merged) {
		t.Error("merged scopes differ between serial and parallel builds")
	}
}

// TestSessionConcurrentUse hammers one session from many goroutines; the
// per-key singleflight must hand every caller the same built-once values.
// (Run under -race this also proves the caches, and the run populations
// the corpus, the table and fig15 share, are data-race free.)
func TestSessionConcurrentUse(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus builds are slow")
	}
	s := NewSession(microScale())
	const callers = 8
	corpora := make([]*Corpus, callers)
	tables := make([]any, callers)
	passing := make([]*Tab1Fig19Result, callers)
	fig15 := make([]string, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for k := 0; k < callers; k++ {
		go func(k int) {
			defer wg.Done()
			if k%2 == 1 {
				fig15[k] = Fig15(context.Background(), s).Render()
			}
			corpora[k] = s.Corpus(context.Background(), pdn.Proc3)
			tables[k] = s.PairTable(context.Background(), pdn.Proc3)
			passing[k] = Tab1Fig19(context.Background(), s)
			if k%2 == 0 {
				fig15[k] = Fig15(context.Background(), s).Render()
			}
		}(k)
	}
	wg.Wait()
	for k := 1; k < callers; k++ {
		if fig15[k] != fig15[0] {
			t.Fatal("concurrent callers rendered distinct fig15s")
		}
		if corpora[k] != corpora[0] {
			t.Fatal("concurrent callers got distinct corpora")
		}
		if tables[k] != tables[0] {
			t.Fatal("concurrent callers got distinct pair tables")
		}
		if passing[k] != passing[0] {
			t.Fatal("concurrent callers got distinct passing analyses")
		}
	}
}

// TestTab1Fig19Memoized pins the run-all fix: tab1 and fig19 share one
// passing analysis per session instead of computing it twice.
func TestTab1Fig19Memoized(t *testing.T) {
	s := session(t)
	a := Tab1Fig19(context.Background(), s)
	b := Tab1Fig19(context.Background(), s)
	if a != b {
		t.Error("Tab1Fig19 recomputed on the second call")
	}
}

// TestQuickSubsetOrderPinned asserts every quickSubsetOrder entry names a
// real SPEC2006 profile, with no duplicates, and that the full order is
// exactly the 29-benchmark suite — so every Scale.SpecSubset prefix is a
// valid subset.
func TestQuickSubsetOrderPinned(t *testing.T) {
	suite := map[string]bool{}
	for _, p := range workload.SPEC2006() {
		suite[p.Name] = true
	}
	if len(quickSubsetOrder) != len(suite) {
		t.Fatalf("quickSubsetOrder has %d entries, suite has %d", len(quickSubsetOrder), len(suite))
	}
	seen := map[string]bool{}
	for _, name := range quickSubsetOrder {
		if !suite[name] {
			t.Errorf("quickSubsetOrder entry %q not in workload.SPEC2006()", name)
		}
		if seen[name] {
			t.Errorf("quickSubsetOrder lists %q twice", name)
		}
		seen[name] = true
	}
}

// TestSpecProfilesMissingNamePanics pins the fail-loudly behaviour: a
// drifted subset entry must not silently become a zero-value profile.
func TestSpecProfilesMissingNamePanics(t *testing.T) {
	old := quickSubsetOrder
	quickSubsetOrder = []string{"no-such-benchmark"}
	defer func() { quickSubsetOrder = old }()

	s := NewSession(Scale{SpecSubset: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SpecProfiles returned despite a drifted subset name")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "no-such-benchmark") {
			t.Errorf("panic %v does not name the missing benchmark", r)
		}
	}()
	s.SpecProfiles()
}

// TestFig18ZeroRandomBatches is the regression test for the NaN centroid:
// a scale with no random control group must render finite values and no
// NaN anywhere.
func TestFig18ZeroRandomBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("pair-table build is slow")
	}
	sc := microScale()
	sc.RandomBatches = 0
	s := NewSession(sc)
	r := Fig18(context.Background(), s)
	if len(r.Random) != 0 {
		t.Fatalf("expected no random batches, got %d", len(r.Random))
	}
	cd, cp := r.RandomCentroid()
	if cd != 1 || cp != 1 {
		t.Errorf("empty-control centroid = (%g, %g), want the SPECrate origin (1, 1)", cd, cp)
	}
	out := r.Render()
	if strings.Contains(out, "NaN") {
		t.Errorf("render contains NaN:\n%s", out)
	}
	if !strings.Contains(out, "no random control group") {
		t.Error("render does not explain the missing control group")
	}
}

// TestRandomEvalsDeterministicAcrossWidths drives the Fig 18 control
// group through the session path at two widths on a real (micro) table.
func TestRandomEvalsDeterministicAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("pair-table build is slow")
	}
	build := func(workers int) *Fig18Result {
		s := NewSession(microScale())
		s.Workers = workers
		return Fig18(context.Background(), s)
	}
	serial := build(1)
	par := build(4)
	if !reflect.DeepEqual(serial, par) {
		t.Error("Fig18 results differ between workers=1 and workers=4")
	}
}

// TestRegistryRendersWidthInvariant extends the sweep guarantee to every
// experiment: each one's independent runs fan out over Session.Workers, so
// every render must be byte-identical at workers=1 and workers=4.
func TestRegistryRendersWidthInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment twice")
	}
	sc := microScale()
	sc.SpecSubset = 4 // Recovery schedules SpecProfiles()[:4]
	sc.PhaseRunCycles = 60_000
	sc.MicroCycles = 8_000
	sc.WindowCycles = 20_000
	sc.Windows = 3
	sc.ImpedanceFreqs = 3
	render := func(workers int) map[string]string {
		s := NewSession(sc)
		s.Workers = workers
		out := map[string]string{}
		for _, e := range All() {
			r, err := s.Run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", e.ID, workers, err)
			}
			out[e.ID] = r.Render()
		}
		return out
	}
	serial, par := render(1), render(4)
	for _, e := range All() {
		if serial[e.ID] != par[e.ID] {
			t.Errorf("%s renders differently at workers=1 and workers=4", e.ID)
		}
	}
}

// TestCancelledRunReturnsContextError pins cancellation for the
// experiments whose runs fan out over the session sweep: with a ctx that
// is already cancelled, Session.Run returns no render and an error
// matching context.Canceled instead of simulating to completion.
func TestCancelledRunReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"ext1", "ext2", "fig4", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			s := NewSession(microScale())
			s.Workers = workers
			r, err := s.Run(ctx, e)
			if r != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("%s at workers=%d: got renderer %v, err %v; want nil and context.Canceled", id, workers, r != nil, err)
			}
		}
	}
}
