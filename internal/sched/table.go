// Package sched implements the paper's Sec IV: voltage-noise-aware thread
// scheduling. Because resilient (rollback-capable) hardware does not exist
// to run on — neither for the paper's authors nor here — the study is
// oracle-based: every candidate co-schedule is measured once (droops and
// IPC for all N×N benchmark pairs), and scheduling policies then operate
// on that oracle table exactly as the paper describes ("The scheduling
// experiment is oracle-based, requiring knowledge of all runs a priori.
// During a pre-run phase we gather all the data necessary across 29×29
// CPU2006 program combinations.").
package sched

import (
	"context"
	"fmt"

	"voltsmooth/internal/core"
	"voltsmooth/internal/counters"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/stats"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// PairTable is the oracle: measured behaviour of every benchmark pair on
// the two-core platform, plus each benchmark alone (single-core) for the
// Fig 17 reference markers.
type PairTable struct {
	Names []string
	// Margin is the emergency threshold the droop counts use (the
	// paper's hypothetical 2.3% characterization margin).
	Margin float64
	// Cycles is the measured window per run.
	Cycles uint64

	// Droops[i][j]: chip-wide droops per 1K cycles with program i on
	// core 0 and program j on core 1.
	Droops [][]float64
	// IPC[i][j]: total (sum over cores) IPC of the pair.
	IPC [][]float64
	// Runs[i][j]: full emergency data of the pair run, for the
	// resilient-design passing analysis (Tab I / Fig 19).
	Runs [][]resilient.RunData

	// SingleDroops[i]: droops per 1K cycles with program i alone
	// (other core idling) — the circular markers of Fig 17.
	SingleDroops []float64
	// SingleIPC[i]: IPC of program i alone.
	SingleIPC []float64
}

// BuildConfig controls oracle-table construction.
type BuildConfig struct {
	Chip   uarch.Config
	Cycles uint64 // measured cycles per run
	Warmup uint64
	Margin float64 // droop-count margin; 0 means core.PhaseMargin
	// Margins tracked for the resilient analysis; nil = core.DefaultMargins.
	Margins []float64
	// Workers bounds the sweep's fan-out: every run is an independent,
	// deterministically seeded simulation, so the table is bit-identical
	// at any width. <= 0 means parallel.DefaultWorkers(); 1 is the serial
	// path.
	Workers int
}

// SingleCell is one single-core reference of the table: a program alone
// on core 0 with the other core idling.
type SingleCell struct {
	Droops float64 `json:"droops"`
	IPC    float64 `json:"ipc"`
}

// PairRun is one measured pair as NewPairTable consumes it: the run's
// emergencies at every tracked margin and its per-core counters over the
// measured window. The table keeps Data itself, so a caller that already
// holds the run's RunData shares it instead of copying it.
type PairRun struct {
	Data     resilient.RunData
	Counters []counters.Counters
}

// DefaultBuildConfig returns the configuration used by the experiments:
// the stock chip, the 2.3% characterization margin, and the full margin
// sweep for the resilient model.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		Chip:   uarch.DefaultConfig(),
		Cycles: 400_000,
		Warmup: 4_000,
		Margin: core.PhaseMargin,
	}
}

// BuildPairTable measures all len(profiles)² pairs plus the single-core
// references. This is the experiment's pre-run phase; with the default
// 400k-cycle windows the full 29×29 sweep is sizeable, so it fans out
// over cfg.Workers goroutines (the runs are independent and seeded, so
// the table is identical at any width). Callers running quick checks
// should pass fewer profiles or fewer cycles.
func BuildPairTable(cfg BuildConfig, profiles []workload.Profile) *PairTable {
	t, err := BuildPairTableCtx(context.Background(), cfg, profiles)
	if err != nil {
		// The background context cannot be cancelled, so the ctx variant
		// cannot fail here.
		panic(fmt.Sprintf("sched: BuildPairTable: %v", err))
	}
	return t
}

// BuildPairTableCtx is BuildPairTable with cooperative cancellation: the
// sweep polls ctx at run boundaries (the oracle phase boundary — each run
// is one indivisible seeded simulation) and returns the context's error
// with no table. It measures every cell and hands them to NewPairTable.
func BuildPairTableCtx(ctx context.Context, cfg BuildConfig, profiles []workload.Profile) (*PairTable, error) {
	if len(profiles) == 0 {
		panic("sched: BuildPairTable needs at least one profile")
	}
	if cfg.Margin == 0 {
		cfg.Margin = core.PhaseMargin
	}
	margins := cfg.Margins
	if margins == nil {
		margins = core.DefaultMargins()
	}
	rc := core.RunConfig{Cycles: cfg.Cycles, WarmupCycles: cfg.Warmup, Margins: margins}

	n := len(profiles)
	names := make([]string, n)
	for i, p := range profiles {
		names[i] = p.Name
	}
	singles := make([]SingleCell, n)
	if err := parallel.SweepCtx(ctx, cfg.Workers, n, func(i int) {
		res := core.RunSingle(cfg.Chip, profiles[i].NewStream(), rc)
		singles[i] = SingleCell{Droops: res.DroopsPerKCycle(cfg.Margin), IPC: res.IPC(0)}
		CellDone()
	}); err != nil {
		return nil, err
	}
	// The N² pair sweep, flattened to one index space: run k measures
	// program k/n on core 0 against program k%n on core 1.
	pairs := make([]PairRun, n*n)
	if err := parallel.SweepCtx(ctx, cfg.Workers, n*n, func(k int) {
		a, b := profiles[k/n], profiles[k%n]
		res := core.RunPair(cfg.Chip, a.NewStream(), b.NewStream(), rc)
		pairs[k] = PairRun{
			Data:     resilient.FromScope(a.Name+"+"+b.Name, res.Cycles, res.Scope),
			Counters: res.Counters,
		}
		CellDone()
	}); err != nil {
		return nil, err
	}
	return NewPairTable(names, cfg.Margin, cfg.Cycles, singles, pairs), nil
}

// NewPairTable assembles the oracle from measured cells: singles[i] is
// program names[i] alone, and pairs[i*n+j] runs names[i] on core 0
// against names[j] on core 1, each over cycles measured cycles. Every
// pair must track margin. The table takes ownership of names and shares
// each pair's RunData.
func NewPairTable(names []string, margin float64, cycles uint64, singles []SingleCell, pairs []PairRun) *PairTable {
	n := len(names)
	if n == 0 || len(singles) != n || len(pairs) != n*n {
		panic(fmt.Sprintf("sched: NewPairTable: %d names, %d singles, %d pairs", n, len(singles), len(pairs)))
	}
	t := &PairTable{
		Names:        names,
		Margin:       margin,
		Cycles:       cycles,
		Droops:       make([][]float64, n),
		IPC:          make([][]float64, n),
		Runs:         make([][]resilient.RunData, n),
		SingleDroops: make([]float64, n),
		SingleIPC:    make([]float64, n),
	}
	for i := range names {
		t.SingleDroops[i] = singles[i].Droops
		t.SingleIPC[i] = singles[i].IPC
		t.Droops[i] = make([]float64, n)
		t.IPC[i] = make([]float64, n)
		t.Runs[i] = make([]resilient.RunData, n)
		for j := range names {
			p := &pairs[i*n+j]
			t.Droops[i][j] = p.Data.DroopsPerKCycle(margin)
			var ipc float64
			for c := range p.Counters {
				ipc += p.Counters[c].IPC()
			}
			t.IPC[i][j] = ipc
			t.Runs[i][j] = p.Data
		}
	}
	return t
}

// Size returns the number of benchmarks in the table.
func (t *PairTable) Size() int { return len(t.Names) }

// Index returns the table index of a benchmark name.
func (t *PairTable) Index(name string) (int, error) {
	for i, n := range t.Names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sched: benchmark %q not in table", name)
}

// SPECrateDroops returns the diagonal of the droop table: each benchmark
// co-scheduled with another instance of itself (the paper's SPECrate
// baseline, the triangular markers of Fig 17).
func (t *PairTable) SPECrateDroops() []float64 {
	out := make([]float64, t.Size())
	for i := range out {
		out[i] = t.Droops[i][i]
	}
	return out
}

// SPECrateIPC returns the diagonal of the IPC table.
func (t *PairTable) SPECrateIPC() []float64 {
	out := make([]float64, t.Size())
	for i := range out {
		out[i] = t.IPC[i][i]
	}
	return out
}

// RowStats is one Fig 17 boxplot element: how benchmark i's droop count
// spreads across all possible co-runners.
type RowStats struct {
	Name     string
	Box      stats.BoxplotStats
	Single   float64 // single-core droops (circle marker)
	SPECrate float64 // self-pair droops (triangle marker)
}

// CoScheduleSpread computes the Fig 17 boxplot rows. Droop counts for
// benchmark i aggregate over both orientations (i on either core).
func (t *PairTable) CoScheduleSpread() []RowStats {
	out := make([]RowStats, t.Size())
	for i := range out {
		var vals []float64
		for j := 0; j < t.Size(); j++ {
			vals = append(vals, t.Droops[i][j])
			if i != j {
				vals = append(vals, t.Droops[j][i])
			}
		}
		out[i] = RowStats{
			Name:     t.Names[i],
			Box:      stats.Boxplot(vals),
			Single:   t.SingleDroops[i],
			SPECrate: t.Droops[i][i],
		}
	}
	return out
}

// HasDestructiveInterference reports whether any co-schedule of benchmark
// i produces fewer droops than the SPECrate baseline — the Fig 17
// observation that opens the door to noise-aware scheduling ("In over
// half the co-schedules there is opportunity to perform better than the
// baseline").
func (t *PairTable) HasDestructiveInterference(i int) bool {
	base := t.Droops[i][i]
	for j := 0; j < t.Size(); j++ {
		if t.Droops[i][j] < base || t.Droops[j][i] < base {
			return true
		}
	}
	return false
}
