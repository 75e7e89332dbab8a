package uarch

import (
	"testing"

	"voltsmooth/internal/workload"
)

// hotChip returns a chip with both cores executing real profile streams,
// the configuration every hot-path benchmark and experiment uses.
func hotChip(t testing.TB) *Chip {
	t.Helper()
	chip := NewChip(DefaultConfig())
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	chip.SetStream(0, p.NewStream())
	chip.SetStream(1, q.NewStream())
	return chip
}

// TestSubstepsAlignedToStabilityBound pins the substep grid to the PDN's
// stability bound: the default per-substep dt must not exceed
// pdn.Network.MaxStableStep, or every substep silently subdivides and the
// per-cycle integration cost doubles without any accuracy the experiment
// tolerances can resolve. If a PDN parameter change tightens the bound,
// this fails and Substeps must be re-derived, not papered over.
func TestSubstepsAlignedToStabilityBound(t *testing.T) {
	cfg := DefaultConfig()
	chip := NewChip(cfg)
	dt := (1 / cfg.ClockHz) / float64(cfg.Substeps)
	max := chip.Network().MaxStableStep()
	if dt > max {
		t.Fatalf("substep dt %.3g s exceeds stability bound %.3g s: cycles will silently subdivide ×%d",
			dt, max, int((dt+max-1e-30)/max)+1)
	}
	// The grid should also not be needlessly fine: one fewer substep
	// should overshoot the bound, otherwise Substeps burns integration
	// work the stability analysis does not require.
	if cfg.Substeps > 1 {
		coarser := (1 / cfg.ClockHz) / float64(cfg.Substeps-1)
		if coarser <= max {
			t.Errorf("Substeps %d is finer than the stability bound requires: %d substeps would still be stable",
				cfg.Substeps, cfg.Substeps-1)
		}
	}
}

// TestChipCycleZeroAllocs pins the zero-allocation contract of the
// simulator hot path: a chip cycle with both cores executing (instruction
// issue, current model, PDN integration) must not allocate, and neither
// may a recovery stall cycle, a cycle with injected fault current or a
// current-only cycle, issuing or stalled.
func TestChipCycleZeroAllocs(t *testing.T) {
	chip := hotChip(t)
	if avg := testing.AllocsPerRun(2000, func() {
		chip.Cycle()
	}); avg != 0 {
		t.Fatalf("Chip.Cycle allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		chip.StallCycle()
	}); avg != 0 {
		t.Fatalf("Chip.StallCycle allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		chip.InjectCurrent(5)
		chip.Cycle()
	}); avg != 0 {
		t.Fatalf("Chip.Cycle with injection allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		chip.InjectCurrent(5)
		chip.CycleLoad()
	}); avg != 0 {
		t.Fatalf("Chip.CycleLoad allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(2000, func() {
		chip.InjectCurrent(5)
		chip.StallLoad()
	}); avg != 0 {
		t.Fatalf("Chip.StallLoad allocates %.1f allocs/op, want 0", avg)
	}
}

// TestCycleReusedScratchMatchesFresh guards the scratch-buffer reuse in
// Cycle/StallCycle: two chips stepped identically — one exercised through
// extra construction-time state — must produce identical voltages and
// per-core draws, i.e. the reused perCore buffer carries no state between
// cycles.
func TestCycleReusedScratchMatchesFresh(t *testing.T) {
	a := hotChip(t)
	b := hotChip(t)
	// Warm a's scratch with stall cycles before the comparison run; a
	// stall writes different values into perCore than an issue cycle.
	for i := 0; i < 3; i++ {
		a.StallCycle()
		b.StallCycle()
	}
	for i := 0; i < 5_000; i++ {
		va, vb := a.Cycle(), b.Cycle()
		if va != vb {
			t.Fatalf("cycle %d: voltages diverged %v vs %v", i, va, vb)
		}
		for c := 0; c < a.Config().NumCores; c++ {
			if ia, ib := a.CoreCurrent(c), b.CoreCurrent(c); ia != ib {
				t.Fatalf("cycle %d: core %d draws diverged %v vs %v", i, c, ia, ib)
			}
		}
	}
}
