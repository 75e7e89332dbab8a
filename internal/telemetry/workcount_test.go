package telemetry_test

import (
	"context"
	"testing"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/telemetry"
)

// workCount is one experiment's simulation work: the PDN substeps it
// integrated, the runs it measured and the pair-table cells it built.
type workCount struct{ steps, units, cells uint64 }

// wantTinyWork is every experiment's work in a tiny `all` job. An
// experiment that reads a population another one already built counts
// nothing for it, so the split follows the batch's order (fig7 and fig9
// read what ext3 built).
var wantTinyWork = map[string]workCount{
	"ext1":          {steps: 26_145_000},
	"ext2":          {steps: 4_725_000},
	"ext3":          {steps: 62_790_000, units: 48, cells: 42},
	"fig1":          {},
	"fig2":          {},
	"fig4":          {steps: 5_597_466},
	"fig6":          {},
	"fig7":          {units: 48},
	"fig8":          {},
	"fig9":          {units: 48},
	"fig10":         {},
	"fig11":         {steps: 385_000},
	"fig12":         {steps: 2_310_000},
	"fig13":         {steps: 11_935_000},
	"fig14":         {steps: 19_215_000},
	"fig15":         {},
	"fig16":         {steps: 16_800_000},
	"fig17":         {},
	"fig18":         {},
	"fig19":         {},
	"figx-recovery": {steps: 29_020_383},
	"tab1":          {},
}

// wantTinyTotal is the whole tiny `all` job's work.
var wantTinyTotal = workCount{steps: 178_922_849, units: 144, cells: 42}

// TestWorkCountsAllTiny pins the exact work of `all` at the tiny scale,
// run as vsmoothd runs a job: runner.RunBatch with one experiment at a
// time. Each experiment's delta of pdn.steps, exp.units and sched.cells,
// and the totals, are fixed numbers. A change that cuts work updates them
// on purpose; a change that adds work, or a chip loop that never
// publishes its network steps, fails here.
func TestWorkCountsAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at the tiny scale")
	}
	reg := telemetry.NewRegistry()
	t.Cleanup(telemetry.Install(reg, nil))
	steps, units, cells := reg.Counter("pdn.steps"), reg.Counter("exp.units"), reg.Counter("sched.cells")
	read := func() workCount { return workCount{steps.Load(), units.Load(), cells.Load()} }

	got := map[string]workCount{}
	var start workCount
	results, err := runner.RunBatch(context.Background(), experiments.NewSession(experiments.Tiny()),
		experiments.All(), runner.Config{
			Workers: 1,
			OnEvent: func(ev runner.Event) {
				switch ev.Kind {
				case runner.EventStart:
					start = read()
				case runner.EventDone:
					end := read()
					got[ev.ID] = workCount{end.steps - start.steps, end.units - start.units, end.cells - start.cells}
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	for id, want := range wantTinyWork {
		if g, ok := got[id]; !ok {
			t.Errorf("%s did not run", id)
		} else if g != want {
			t.Errorf("%s: %+v, want %+v", id, g, want)
		}
	}
	for id := range got {
		if _, ok := wantTinyWork[id]; !ok {
			t.Errorf("%s ran but has no pinned work count", id)
		}
	}
	if total := read(); total != wantTinyTotal {
		t.Errorf("total: %+v, want %+v", total, wantTinyTotal)
	}
}
