package uarch

import (
	"errors"
	"testing"

	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/workload"
)

func snapshotChip(t *testing.T) *Chip {
	t.Helper()
	cfg := DefaultConfig()
	chip := NewChip(cfg)
	a, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	chip.SetStream(0, a.NewStream())
	chip.SetStream(1, b.NewStream())
	return chip
}

// TestFullRestoreIsBitExact snapshots mid-run, records a window, restores,
// and requires the rerun window to match sample for sample — voltages,
// currents, and counters.
func TestFullRestoreIsBitExact(t *testing.T) {
	chip := snapshotChip(t)
	for i := 0; i < 5_000; i++ {
		chip.Cycle()
	}
	st, err := chip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const window = 3_000
	want := make([]float64, window)
	for i := range want {
		want[i] = chip.Cycle()
	}
	wantCtr := [2]uint64{chip.Counters(0).Instructions, chip.Counters(1).Instructions}

	for round := 0; round < 2; round++ { // a snapshot survives repeated restores
		if err := chip.Restore(st); err != nil {
			t.Fatal(err)
		}
		if chip.CycleCount() != st.Cycles() {
			t.Fatalf("round %d: cycle clock %d not rewound to %d", round, chip.CycleCount(), st.Cycles())
		}
		for i := range want {
			if got := chip.Cycle(); got != want[i] {
				t.Fatalf("round %d: cycle %d voltage %.9f, want %.9f", round, i, got, want[i])
			}
		}
		if chip.Counters(0).Instructions != wantCtr[0] || chip.Counters(1).Instructions != wantCtr[1] {
			t.Fatalf("round %d: counters diverged after restore", round)
		}
	}
}

// TestRestoreArchReplaysWorkNotPhysics verifies the rollback contract:
// after RestoreArch the replayed cycles retire the identical instructions
// (counters match the first pass exactly) while the electrical state and
// cycle clock keep moving forward.
func TestRestoreArchReplaysWorkNotPhysics(t *testing.T) {
	chip := snapshotChip(t)
	for i := 0; i < 4_000; i++ {
		chip.Cycle()
	}
	st, err := chip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const window = 2_500
	for i := 0; i < window; i++ {
		chip.Cycle()
	}
	firstPass := [2]uint64{chip.Counters(0).Instructions, chip.Counters(1).Instructions}
	clockBefore := chip.CycleCount()

	if err := chip.RestoreArch(st); err != nil {
		t.Fatal(err)
	}
	if chip.CycleCount() != clockBefore {
		t.Fatalf("RestoreArch rewound the cycle clock: %d -> %d", clockBefore, chip.CycleCount())
	}
	if chip.Counters(0).Instructions >= firstPass[0] {
		t.Fatal("RestoreArch did not rewind the counters")
	}
	for i := 0; i < window; i++ {
		chip.Cycle()
	}
	replay := [2]uint64{chip.Counters(0).Instructions, chip.Counters(1).Instructions}
	if replay != firstPass {
		t.Fatalf("replay retired %v instructions, first pass retired %v", replay, firstPass)
	}
}

// opaqueStream is a Stream without Checkpoint/Restore.
type opaqueStream struct{}

func (opaqueStream) Name() string         { return "opaque" }
func (opaqueStream) Next() workload.Instr { return workload.Instr{Class: workload.ClassALU} }

func TestSnapshotRejectsOpaqueStreams(t *testing.T) {
	chip := NewChip(DefaultConfig())
	chip.SetStream(0, opaqueStream{})
	if _, err := chip.Snapshot(); !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("Snapshot error = %v, want ErrNotCheckpointable", err)
	}
}

func TestRestoreRejectsForeignState(t *testing.T) {
	chip := snapshotChip(t)
	st, err := chip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumCores = 1
	other := NewChip(cfg)
	if err := other.Restore(st); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("Restore error = %v, want ErrStateMismatch", err)
	}
}

// TestStallCycleFreezesArchitecture runs recovery stalls and checks that
// counters, streams, and the PRNG hold still while current collapses
// toward the gated floor.
func TestStallCycleFreezesArchitecture(t *testing.T) {
	chip := snapshotChip(t)
	for i := 0; i < 3_000; i++ {
		chip.Cycle()
	}
	ctrBefore := *chip.Counters(0)
	rngBefore := chip.rng
	clockBefore := chip.CycleCount()
	for i := 0; i < 200; i++ {
		chip.StallCycle()
	}
	if *chip.Counters(0) != ctrBefore {
		t.Error("StallCycle advanced the counters")
	}
	if chip.rng != rngBefore {
		t.Error("StallCycle consumed PRNG state")
	}
	if chip.CycleCount() != clockBefore+200 {
		t.Errorf("StallCycle advanced clock by %d, want 200", chip.CycleCount()-clockBefore)
	}
	cm := chip.Config().Current
	gatedFloor := float64(chip.Config().NumCores)*cm.GatedAmps + cm.UncoreAmps
	if cur := chip.TotalCurrent(); cur > gatedFloor*1.05 {
		t.Errorf("after 200 stall cycles current %.2f A, want near gated floor %.2f A", cur, gatedFloor)
	}
}

// TestInjectCurrentDroopsVoltage compares a run with a one-cycle injected
// spike against the same run without it. The comparison is windowed around
// the injection cycle: the two runs execute the identical instruction
// sequence (injection never perturbs architectural state), so inside the
// window the only difference is the electrical response to the spike, and
// the spiked trajectory must dip below anything the clean one does there.
// A whole-run minimum would instead race the spike's droop against the
// workload's deepest natural event, which measures the workload, not the
// injection seam.
func TestInjectCurrentDroopsVoltage(t *testing.T) {
	const injectAt, window = 3_000, 60
	run := func(spike bool) float64 {
		chip := snapshotChip(t)
		vMin := 2.0
		for i := 0; i < injectAt+window; i++ {
			if spike && i == injectAt {
				chip.InjectCurrent(40)
			}
			v := chip.Cycle()
			if i >= injectAt && v < vMin {
				vMin = v
			}
		}
		return vMin
	}
	clean, spiked := run(false), run(true)
	if spiked >= clean {
		t.Errorf("injected spike did not deepen droop: clean %.4f V, spiked %.4f V", clean, spiked)
	}
}

// TestRestoreKeepsCountedSteps pins the network's step count across a
// full restore: it rewinds its trajectory, not the work that integrated
// it. Every cycle stepped before and after the restore reaches pdn.steps
// at the publish, and a second publish adds nothing.
func TestRestoreKeepsCountedSteps(t *testing.T) {
	reg := telemetry.NewRegistry()
	t.Cleanup(telemetry.Install(reg, nil))
	cfg := DefaultConfig()
	chip := NewChip(cfg)
	for i := 0; i < 100; i++ {
		chip.Cycle()
	}
	st, err := chip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		chip.StallCycle()
	}
	if err := chip.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		chip.Cycle()
	}
	if got := reg.Counter("pdn.steps").Load(); got != 0 {
		t.Fatalf("pdn.steps read %d before any publish", got)
	}
	chip.PublishSteps()
	chip.PublishSteps()
	if got, want := reg.Counter("pdn.steps").Load(), uint64(175*cfg.Substeps); got != want {
		t.Errorf("published %d steps, want %d", got, want)
	}
}
