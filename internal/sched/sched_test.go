package sched

import (
	"context"
	"math"
	"testing"

	"voltsmooth/internal/resilient"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// fakeTable builds a small synthetic oracle with known structure:
// benchmark 0 is quiet/slow, 1 is noisy/fast, 2 is middling, and pairing
// 0 with 1 interferes destructively (fewer droops than either self-pair).
func fakeTable() *PairTable {
	t := &PairTable{
		Names:  []string{"quiet", "noisy", "mid"},
		Margin: 0.023,
		Cycles: 1000,
		Droops: [][]float64{
			{40, 20, 45},
			{20, 160, 90},
			{45, 90, 70},
		},
		IPC: [][]float64{
			{1.0, 2.2, 1.5},
			{2.2, 3.0, 2.9},
			{1.5, 2.9, 1.8},
		},
		SingleDroops: []float64{30, 100, 50},
		SingleIPC:    []float64{0.6, 1.6, 1.0},
	}
	n := len(t.Names)
	t.Runs = make([][]resilient.RunData, n)
	for i := range t.Runs {
		t.Runs[i] = make([]resilient.RunData, n)
		for j := range t.Runs[i] {
			em := uint64(t.Droops[i][j]) // emergencies proportional to droops
			t.Runs[i][j] = resilient.RunData{
				Name: t.Names[i] + "+" + t.Names[j], Cycles: 100000,
				Margins:     []float64{0.023, 0.08},
				Emergencies: []uint64{em * 100, em / 4},
			}
		}
	}
	return t
}

func TestDroopPolicyPicksQuietestPair(t *testing.T) {
	tab := fakeTable()
	b := BuildBatch(tab, DroopPolicy{}, BatchConfig{Size: 1, MaxRepeat: 2})
	if len(b.Pairs) != 1 {
		t.Fatalf("batch size %d", len(b.Pairs))
	}
	p := b.Pairs[0]
	if tab.Droops[p[0]][p[1]] != 20 {
		t.Errorf("droop policy chose pair %v with %g droops, want the 20-droop pair",
			p, tab.Droops[p[0]][p[1]])
	}
}

func TestIPCPolicyPicksBestSynergyPair(t *testing.T) {
	tab := fakeTable()
	b := BuildBatch(tab, IPCPolicy{}, BatchConfig{Size: 1, MaxRepeat: 2})
	p := b.Pairs[0]
	// The (noisy, mid) pairing has IPC 2.9 against a SPECrate baseline
	// of (3.0+1.8)/2 = 2.4 — the highest throughput synergy (1.21).
	if !(p == [2]int{1, 2} || p == [2]int{2, 1}) {
		t.Errorf("IPC policy chose pair %v, want the synergistic (1,2)", p)
	}
}

func TestHybridPolicyInterpolates(t *testing.T) {
	tab := fakeTable()
	// n=0 reduces to IPC; large n approaches droop-minimizing.
	ipcChoice := BuildBatch(tab, HybridPolicy{N: 0}, BatchConfig{Size: 1, MaxRepeat: 2}).Pairs[0]
	if !(ipcChoice == [2]int{1, 2} || ipcChoice == [2]int{2, 1}) {
		t.Errorf("n=0 hybrid should mimic IPC, chose %v", ipcChoice)
	}
	droopChoice := BuildBatch(tab, HybridPolicy{N: 6}, BatchConfig{Size: 1, MaxRepeat: 2}).Pairs[0]
	if tab.Droops[droopChoice[0]][droopChoice[1]] != 20 {
		t.Errorf("large-n hybrid should chase low droops, chose %v", droopChoice)
	}
}

func TestBatchRespectsRepeatBudget(t *testing.T) {
	tab := fakeTable()
	cfg := BatchConfig{Size: 10, MaxRepeat: 2}
	b := BuildBatch(tab, DroopPolicy{}, cfg)
	used := map[int]int{}
	for _, p := range b.Pairs {
		used[p[0]]++
		used[p[1]]++
	}
	for id, n := range used {
		if n > cfg.MaxRepeat {
			t.Errorf("benchmark %d used %d times, budget %d", id, n, cfg.MaxRepeat)
		}
	}
	// With 3 benchmarks and budget 2 the pool holds at most 3 pairs.
	if len(b.Pairs) > 3 {
		t.Errorf("batch of %d pairs exceeds pool capacity", len(b.Pairs))
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	tab := fakeTable()
	cfg := BatchConfig{Size: 3, MaxRepeat: 2}
	a := BuildBatch(tab, RandomPolicy{Seed: 7}, cfg)
	b := BuildBatch(tab, RandomPolicy{Seed: 7}, cfg)
	c := BuildBatch(tab, RandomPolicy{Seed: 8}, cfg)
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("same seed produced different batches")
		}
	}
	same := len(a.Pairs) == len(c.Pairs)
	if same {
		for i := range a.Pairs {
			if a.Pairs[i] != c.Pairs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical batches (suspicious)")
	}
}

func TestEvaluateBatchNormalization(t *testing.T) {
	tab := fakeTable()
	// The all-SPECrate batch must evaluate to exactly (1, 1).
	b := Batch{Policy: "specrate", Pairs: [][2]int{{0, 0}, {1, 1}, {2, 2}}}
	ev := EvaluateBatch(tab, b)
	if math.Abs(ev.Droops-1) > 1e-12 || math.Abs(ev.Perf-1) > 1e-12 {
		t.Errorf("SPECrate batch normalized to (%g, %g), want (1,1)", ev.Droops, ev.Perf)
	}
}

func TestDroopBeatsIPCOnDroops(t *testing.T) {
	tab := fakeTable()
	cfg := BatchConfig{Size: 3, MaxRepeat: 2}
	droopBatch := BuildBatch(tab, DroopPolicy{}, cfg)
	ipcBatch := BuildBatch(tab, IPCPolicy{}, cfg)
	droopEval := EvaluateBatch(tab, droopBatch)
	ipcEval := EvaluateBatch(tab, ipcBatch)
	if droopEval.Droops >= ipcEval.Droops {
		t.Errorf("Droop policy droops %.3f not below IPC policy %.3f",
			droopEval.Droops, ipcEval.Droops)
	}
	// The IPC policy's first pick must be the most synergistic pair;
	// beyond that, greedy construction under repeat budgets makes no
	// global throughput guarantee, so nothing stronger is asserted here.
	first := ipcBatch.Pairs[0]
	if !(first == [2]int{1, 2} || first == [2]int{2, 1}) {
		t.Errorf("IPC batch first pick %v, want the synergistic (1,2)", first)
	}
}

func TestCoScheduleSpreadAndDestructiveInterference(t *testing.T) {
	tab := fakeTable()
	rows := tab.CoScheduleSpread()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].SPECrate != 160 || rows[1].Single != 100 {
		t.Errorf("noisy markers: %+v", rows[1])
	}
	if rows[1].Box.Min != 20 {
		t.Errorf("noisy min = %g, want 20 (pairing with quiet)", rows[1].Box.Min)
	}
	if !tab.HasDestructiveInterference(1) {
		t.Error("noisy benchmark has a 20-droop co-schedule below its 160 baseline")
	}
}

func TestSPECrateAccessors(t *testing.T) {
	tab := fakeTable()
	d := tab.SPECrateDroops()
	if d[0] != 40 || d[1] != 160 || d[2] != 70 {
		t.Errorf("SPECrate droops = %v", d)
	}
	p := tab.SPECrateIPC()
	if p[0] != 1.0 || p[1] != 3.0 {
		t.Errorf("SPECrate IPC = %v", p)
	}
}

func TestIndex(t *testing.T) {
	tab := fakeTable()
	if i, err := tab.Index("mid"); err != nil || i != 2 {
		t.Errorf("Index(mid) = %d, %v", i, err)
	}
	if _, err := tab.Index("absent"); err == nil {
		t.Error("Index accepted unknown name")
	}
}

func TestAnalyzePassingShape(t *testing.T) {
	tab := fakeTable()
	cfg := PassConfig{
		Model:        resilient.DefaultModel(),
		Margins:      []float64{0.023, 0.08},
		Costs:        []float64{1, 100, 10000},
		Corpus:       CorpusFromTable(tab),
		PassFraction: 0.9,
	}
	rows := AnalyzePassing(tab, cfg, []Policy{DroopPolicy{}, IPCPolicy{}})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.SPECratePass < 0 || r.SPECratePass > tab.Size() {
			t.Errorf("row %d SPECrate pass count %d out of range", i, r.SPECratePass)
		}
		for name, c := range r.PolicyPass {
			if c < 0 || c > tab.Size() {
				t.Errorf("row %d policy %s count %d out of range", i, name, c)
			}
		}
		if i > 0 && r.ExpectedImprovement > rows[i-1].ExpectedImprovement {
			t.Errorf("expected improvement rose with cost at row %d", i)
		}
		if i > 0 && r.OptimalMargin < rows[i-1].OptimalMargin {
			t.Errorf("optimal margin tightened with cost at row %d", i)
		}
		// The Droop policy can never pass fewer schedules than... (not a
		// theorem in general, but true on this table by construction).
		if r.PolicyPass["Droop"] < r.PolicyPass["IPC"] {
			t.Errorf("row %d: Droop passes %d < IPC %d on a droop-dominated table",
				i, r.PolicyPass["Droop"], r.PolicyPass["IPC"])
		}
	}
}

func TestPassIncreasePercent(t *testing.T) {
	a := PassAnalysis{SPECratePass: 10, PolicyPass: map[string]int{"Droop": 16}}
	if got := a.PassIncreasePercent("Droop"); math.Abs(got-60) > 1e-12 {
		t.Errorf("increase = %g%%, want 60%%", got)
	}
	zero := PassAnalysis{SPECratePass: 0, PolicyPass: map[string]int{"Droop": 2}}
	if got := zero.PassIncreasePercent("Droop"); got != 100 {
		t.Errorf("zero-baseline increase = %g, want 100", got)
	}
}

// --- End-to-end checks against the real simulator (small scale). ---

func TestSlidingWindowSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sliding window is slow")
	}
	x, _ := workload.ByName("astar")
	res, err := SlidingWindowCtx(context.Background(), uarch.DefaultConfig(), x, x, 30_000, 6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoDroops) != 6 || len(res.SoloDroops) != 6 {
		t.Fatalf("window counts %d/%d", len(res.CoDroops), len(res.SoloDroops))
	}
	kinds := res.Classify(0.15)
	if len(kinds) != 6 {
		t.Fatalf("%d classifications", len(kinds))
	}
	for i, d := range res.CoDroops {
		if d < 0 {
			t.Errorf("negative droop rate in window %d", i)
		}
	}
}
