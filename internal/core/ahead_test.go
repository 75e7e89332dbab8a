package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// TestRunLanesBlockEdges holds RunLanes' block loop to refRun and
// refSplitRun where its blocks meet the run's own boundaries: run lengths
// that are not a multiple of the block (one cycle, one short of a block,
// one past it), no warmup, a warmup that ends mid-block or exactly on a
// block boundary, and split rails and interval series whose intervals
// straddle block boundaries.
func TestRunLanesBlockEdges(t *testing.T) {
	cfg := uarch.DefaultConfig()
	programs, variants := lanePrograms(t, cfg)
	split := func(program string) LaneRun {
		return LaneRun{Streams: programs[program](), Nets: variants[1:2], Split: variants[2:]}
	}
	cases := []struct {
		name    string
		program []string
		rc      RunConfig
	}{
		{"one cycle, no warmup", []string{"pair", "single"}, RunConfig{Cycles: 1}},
		{"one short of a block", []string{"pair"}, RunConfig{Cycles: blockCycles - 1}},
		{"one past a block, no warmup", []string{"two-thread", "pair", "idle"}, RunConfig{Cycles: blockCycles + 1}},
		{"warmup ends mid-block", []string{"pair", "single"}, RunConfig{Cycles: 3 * blockCycles, WarmupCycles: blockCycles + 100}},
		{"warmup ends on a block boundary", []string{"single", "two-thread"}, RunConfig{Cycles: 2*blockCycles + 7, WarmupCycles: blockCycles}},
		{"intervals straddle blocks", []string{"pair", "two-thread", "single"},
			RunConfig{Cycles: 5*blockCycles + 3, WarmupCycles: 300, IntervalCycles: 700, SeriesMargin: 0.023}},
		{"intervals straddle blocks, no warmup", []string{"single", "pair"},
			RunConfig{Cycles: 4 * blockCycles, IntervalCycles: 333, SeriesMargin: 0.023}},
	}
	for _, c := range cases {
		runs := make([]LaneRun, len(c.program))
		for r, program := range c.program {
			runs[r] = split(program)
		}
		got := RunLanes(cfg, runs, c.rc)
		for r, program := range c.program {
			lc := cfg
			lc.PDN = variants[1]
			if want := refRun(lc, programs[program](), c.rc); !reflect.DeepEqual(got[r][0], want) {
				t.Errorf("%s: run %d (%s) differs from refRun", c.name, r, program)
			}
			if want := refSplitRun(cfg, programs[program](), variants[2], c.rc); !reflect.DeepEqual(got[r][1], want) {
				t.Errorf("%s: run %d (%s) split supply differs from refSplitRun", c.name, r, program)
			}
		}
	}
}

// panicStream panics once it has issued n instructions.
type panicStream struct {
	workload.Stream
	n int
}

func (p *panicStream) Next() workload.Instr {
	if p.n--; p.n < 0 {
		panic("stream exhausted")
	}
	return p.Stream.Next()
}

// TestRunLanesProducerPanic checks that a panic on RunLanes' producer
// goroutine surfaces on the caller's goroutine as a *parallel.PanicError
// carrying the original value, and that no goroutine outlives the run.
func TestRunLanesProducerPanic(t *testing.T) {
	cfg := uarch.DefaultConfig()
	programs, _ := lanePrograms(t, cfg)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			pe, ok := recover().(*parallel.PanicError)
			if !ok || pe.Value != "stream exhausted" {
				t.Fatalf("recovered %#v, want a *parallel.PanicError of the stream's panic", pe)
			}
		}()
		runs := []LaneRun{
			{Streams: programs["pair"](), Nets: []pdn.Params{cfg.PDN}},
			{Streams: []workload.Stream{&panicStream{Stream: programs["single"]()[0], n: 5_000}}, Nets: []pdn.Params{cfg.PDN}},
		}
		RunLanes(cfg, runs, RunConfig{Cycles: 50_000, WarmupCycles: 1_000})
		t.Fatal("RunLanes returned despite the producer's panic")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}

// refLoopImpedance is the loop MeasureLoopImpedance ran before it became
// a one-frequency MeasureLoopImpedances: the chip steps its own network
// through Cycle, one frequency at a time.
func refLoopImpedance(cfg uarch.Config, f float64, cycles uint64) float64 {
	cfg.PDN.RippleAmp = 0
	half := int(cfg.ClockHz / f / 2)
	if half < 1 {
		half = 1
	}
	realized := float64(2 * half)
	chip := uarch.NewChip(cfg)
	chip.SetStream(0, workload.ResonantVirus(half*cfg.IssueWidth, half))
	chip.SetStream(1, workload.ResonantVirus(half*cfg.IssueWidth, half))
	warm := min(uint64(20*realized), cycles/2)
	for i := uint64(0); i < warm; i++ {
		chip.Cycle()
	}
	periods := max(uint64(float64(cycles-warm)/realized), 1)
	n := periods * uint64(realized)
	w := 2 * math.Pi * (cfg.ClockHz / realized) / cfg.ClockHz
	var vRe, vIm, iRe, iIm float64
	for k := uint64(0); k < n; k++ {
		v := chip.Cycle()
		cur := chip.TotalCurrent()
		c, s := math.Cos(w*float64(k)), math.Sin(w*float64(k))
		vRe += float64(v * c)
		vIm -= float64(v * s)
		iRe += float64(cur * c)
		iIm -= float64(cur * s)
	}
	iMag := math.Hypot(iRe, iIm)
	if iMag == 0 {
		return 0
	}
	return math.Hypot(vRe, vIm) / iMag
}

// TestLoopImpedancesEqualSeparate pins fig4's lockstep group: each
// frequency's impedance from one MeasureLoopImpedances call equals
// MeasureLoopImpedance at that frequency alone and refLoopImpedance, bit
// for bit. The frequencies' runs differ in length, so they drop out of
// the group one by one, and six of them fill a pack and leave a pair.
func TestLoopImpedancesEqualSeparate(t *testing.T) {
	cfg := uarch.DefaultConfig()
	freqs := []float64{1e6, 7e6, 3e7, 1.2e8, 2.5e8, 6e8}
	const cycles = 20_000
	got := MeasureLoopImpedances(cfg, freqs, cycles)
	for i, f := range freqs {
		if one := MeasureLoopImpedance(cfg, f, cycles); got[i] != one {
			t.Errorf("%g Hz: group %v, alone %v", f, got[i], one)
		}
		if ref := refLoopImpedance(cfg, f, cycles); got[i] != ref {
			t.Errorf("%g Hz: group %v, reference loop %v", f, got[i], ref)
		}
	}
}
