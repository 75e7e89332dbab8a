package sched

import (
	"reflect"
	"testing"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/resilient"
)

// TestBuildPairTableParallelMatchesSerial pins the sweep engine's core
// guarantee: every run is an independent, deterministically seeded
// simulation, so the oracle table is bit-identical at any worker count.
func TestBuildPairTableParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle build is slow")
	}
	cfg := DefaultBuildConfig()
	cfg.Cycles = 20_000
	cfg.Warmup = 1_000
	profiles := smallProfiles(t)

	cfg.Workers = 1
	serial := BuildPairTable(cfg, profiles)
	cfg.Workers = 4
	par := BuildPairTable(cfg, profiles)

	if !reflect.DeepEqual(serial.Names, par.Names) {
		t.Errorf("Names differ: %v vs %v", serial.Names, par.Names)
	}
	if serial.Margin != par.Margin || serial.Cycles != par.Cycles {
		t.Errorf("config fields differ: (%g,%d) vs (%g,%d)",
			serial.Margin, serial.Cycles, par.Margin, par.Cycles)
	}
	if !reflect.DeepEqual(serial.SingleDroops, par.SingleDroops) {
		t.Errorf("SingleDroops differ:\n%v\n%v", serial.SingleDroops, par.SingleDroops)
	}
	if !reflect.DeepEqual(serial.SingleIPC, par.SingleIPC) {
		t.Errorf("SingleIPC differ:\n%v\n%v", serial.SingleIPC, par.SingleIPC)
	}
	if !reflect.DeepEqual(serial.Droops, par.Droops) {
		t.Errorf("Droops differ:\n%v\n%v", serial.Droops, par.Droops)
	}
	if !reflect.DeepEqual(serial.IPC, par.IPC) {
		t.Errorf("IPC differ:\n%v\n%v", serial.IPC, par.IPC)
	}
	if !reflect.DeepEqual(serial.Runs, par.Runs) {
		t.Error("per-pair RunData differ")
	}
	// Belt and braces: the whole struct, field for field.
	if !reflect.DeepEqual(serial, par) {
		t.Error("tables differ outside the checked fields")
	}
}

// TestRandomEvalsMatchSerialBatches pins the Fig 18 control group: the
// parallel build+evaluate path must equal evaluating RandomBatches one by
// one.
func TestRandomEvalsMatchSerialBatches(t *testing.T) {
	tab := fakeTable()
	cfg := BatchConfig{Size: 3, MaxRepeat: 2}
	const count, seed = 12, 0x5EED

	var serial []BatchEval
	for _, b := range RandomBatches(tab, cfg, count, seed) {
		serial = append(serial, EvaluateBatch(tab, b))
	}
	for _, workers := range []int{1, 4} {
		got := RandomEvals(tab, cfg, count, seed, workers)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: evals differ\n%v\n%v", workers, serial, got)
		}
	}
}

// TestNewPairTableAssemblesCells pins the assembly half of the table
// build: each pair's droops come from its RunData at the table margin,
// its IPC is the sum over cores, its RunData is kept as given, and the
// single-core references are copied in order.
func TestNewPairTableAssemblesCells(t *testing.T) {
	names := []string{"a", "b"}
	singles := []SingleCell{{Droops: 1, IPC: 0.5}, {Droops: 2, IPC: 0.75}}
	pairs := make([]PairRun, 4)
	for k := range pairs {
		pairs[k] = PairRun{
			Data: resilient.RunData{
				Name: names[k/2] + "+" + names[k%2], Cycles: 2000,
				Margins: []float64{0.01, 0.023}, Emergencies: []uint64{100, uint64(10 * (k + 1))},
			},
			Counters: []counters.Counters{
				{Cycles: 1000, Instructions: uint64(500 * (k + 1))},
				{Cycles: 1000, Instructions: 250},
			},
		}
	}
	tab := NewPairTable(names, 0.023, 2000, singles, pairs)
	for k, p := range pairs {
		i, j := k/2, k%2
		if want := float64(5 * (k + 1)); tab.Droops[i][j] != want {
			t.Errorf("Droops[%d][%d] = %g, want %g per 1K cycles", i, j, tab.Droops[i][j], want)
		}
		if want := 0.5*float64(k+1) + 0.25; tab.IPC[i][j] != want {
			t.Errorf("IPC[%d][%d] = %g, want %g", i, j, tab.IPC[i][j], want)
		}
		if !reflect.DeepEqual(tab.Runs[i][j], p.Data) {
			t.Errorf("Runs[%d][%d] = %+v, want the pair's RunData", i, j, tab.Runs[i][j])
		}
	}
	if !reflect.DeepEqual(tab.SingleDroops, []float64{1, 2}) || !reflect.DeepEqual(tab.SingleIPC, []float64{0.5, 0.75}) {
		t.Errorf("single references = %v / %v", tab.SingleDroops, tab.SingleIPC)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewPairTable accepted n names with fewer than n² pairs")
		}
	}()
	NewPairTable(names, 0.023, 2000, singles, pairs[:3])
}
