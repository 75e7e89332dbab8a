package voltsmooth

// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks of the simulation hot paths. The figure benchmarks run
// at the tiny experiment scale against a session whose shared corpora and
// oracle tables are pre-built once (building them is benchmarked
// separately as BenchmarkCorpusBuild / BenchmarkPairTableBuild), so each
// reported time is the cost of regenerating that figure's analysis.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

var (
	benchOnce sync.Once
	benchSess *experiments.Session
	benchErr  error
)

// benchSession returns the shared, pre-warmed session. A failed pre-build
// is reported here, at the source, with its actual cause — Corpus and
// PairTable unwind failures as abort panics, and swallowing them used to
// surface later as a baffling `b.Fatal("empty render")` in whichever
// figure benchmark ran first.
func benchSession(b *testing.B) *experiments.Session {
	b.Helper()
	benchOnce.Do(func() {
		benchErr = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if cause := parallel.AbortCause(r); cause != nil {
						err = cause
						return
					}
					panic(r)
				}
			}()
			benchSess = experiments.NewSession(experiments.Tiny())
			// Pre-build the shared measurements so figure benchmarks
			// time analysis, not corpus construction.
			ctx := context.Background()
			benchSess.Corpus(ctx, pdn.Proc100)
			benchSess.Corpus(ctx, pdn.Proc25)
			benchSess.Corpus(ctx, pdn.Proc3)
			benchSess.PairTable(ctx, pdn.Proc3)
			return nil
		}()
	})
	if benchErr != nil {
		b.Fatalf("bench session pre-build failed: %v", benchErr)
	}
	return benchSess
}

// benchExperiment times one registered experiment end to end.
func benchExperiment(b *testing.B, id string) {
	s := benchSession(b)
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := e.Run(context.Background(), s).Render(); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig01ProjectedSwings(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig02MarginFrequency(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig04ImpedanceProfile(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig06DecapReset(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig07CorpusCDF(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig08MarginSweep(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig09FutureCDFs(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Heatmaps(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11TLBTrace(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12EventSwings(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13InterferenceMatrix(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14NoisePhases(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15StallCorrelation(b *testing.B)   { benchExperiment(b, "fig15") }
func BenchmarkFig16SlidingWindow(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17CoScheduleSpread(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFig18PolicyScatter(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19PassingIncrease(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkTab1PassingAnalysis(b *testing.B)     { benchExperiment(b, "tab1") }
func BenchmarkFigXRecovery(b *testing.B)            { benchExperiment(b, "figx-recovery") }
func BenchmarkExt1(b *testing.B)                    { benchExperiment(b, "ext1") }
func BenchmarkExt2(b *testing.B)                    { benchExperiment(b, "ext2") }
func BenchmarkExt3(b *testing.B)                    { benchExperiment(b, "ext3") }

// sweepWorkerCounts are the fan-out widths the sweep benchmarks compare.
// workers=1 steps one lockstep group at a time, though not on one
// goroutine: each group's chips run a block ahead of its networks on a
// producer goroutine of their own (core.RunLanes). Comparing its ns/op
// against the wider rows is the measured speedup of the parallel sweep
// engine's fan-out on this machine (the sweeps are embarrassingly
// parallel, so it should track the core count until memory bandwidth
// intervenes).
func sweepWorkerCounts() []int {
	counts := []int{1}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if w > counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	return counts
}

// BenchmarkCorpusBuild times construction of one decap variant's full run
// corpus (the pre-run measurement phase shared by Figs 7–10 and Tab I)
// at each sweep width.
func BenchmarkCorpusBuild(b *testing.B) {
	for _, w := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSession(experiments.Tiny())
				s.Workers = w
				s.Corpus(context.Background(), pdn.Proc100)
			}
		})
	}
}

// BenchmarkPairTableBuild times construction of the scheduling oracle at
// each sweep width.
func BenchmarkPairTableBuild(b *testing.B) {
	for _, w := range sweepWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSession(experiments.Tiny())
				s.Workers = w
				s.PairTable(context.Background(), pdn.Proc3)
			}
		})
	}
}

// BenchmarkChipCycle measures the simulator hot path: one chip cycle with
// both cores executing (instruction issue + current model + PDN step).
func BenchmarkChipCycle(b *testing.B) {
	chip := uarch.NewChip(uarch.DefaultConfig())
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	q, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	chip.SetStream(0, p.NewStream())
	chip.SetStream(1, q.NewStream())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Cycle()
	}
}

// BenchmarkPDNStep measures one power-delivery integration substep at the
// exact dt the experiments run: cycle time over the default substep count,
// taken from uarch.DefaultConfig rather than re-derived by hand. (The old
// hand-built dt of 1/(1.86e9·6) exceeded the integrator's stability bound,
// so the "one step" headline number silently measured two subdivided steps
// — a different code path than production.)
func BenchmarkPDNStep(b *testing.B) {
	cfg := uarch.DefaultConfig()
	n := pdn.NewAtLoad(cfg.PDN, 20)
	dt := (1 / cfg.ClockHz) / float64(cfg.Substeps)
	if dt > n.MaxStableStep() {
		b.Fatalf("default substep dt %g exceeds stability bound %g: benchmark would not measure the production path", dt, n.MaxStableStep())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(dt, 20+float64(i&15))
	}
}

// BenchmarkStepCycle measures the real per-cycle kernel of every
// execution-driven experiment: one full chip clock cycle of PDN
// integration at the default substep count, through the fused StepCycle
// path the uarch model drives. This is the number the regression gate
// watches.
func BenchmarkStepCycle(b *testing.B) {
	cfg := uarch.DefaultConfig()
	n := pdn.NewAtLoad(cfg.PDN, 20)
	cycleTime := 1 / cfg.ClockHz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.StepCycle(cycleTime, 20+float64(i&15), cfg.Substeps)
	}
}

// BenchmarkLanes measures pdn.Lanes, the kernel every lockstep group and
// corpus population runs on: one chip cycle of PDN integration on N
// networks cycling through the decap variants. shared=N puts all N on
// one load, as one chip run drives its variants' networks; lanes=N gives
// each network its own load, as a lockstep group of single-variant runs
// does. One op is one N-network cycle, so shared=1 compares against one
// BenchmarkStepCycle op.
func BenchmarkLanes(b *testing.B) {
	cfg := uarch.DefaultConfig()
	cycleTime := 1 / cfg.ClockHz
	variants := []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3}
	for _, c := range []struct {
		name      string
		n, nLoads int
	}{{"shared=1", 1, 1}, {"shared=3", 3, 1}, {"lanes=4", 4, 4}, {"lanes=12", 12, 12}} {
		b.Run(c.name, func(b *testing.B) {
			nets := make([]*pdn.Network, c.n)
			load := make([]int, c.n)
			for i := range nets {
				nets[i] = pdn.NewAtLoad(cfg.PDN.WithCapFraction(variants[i%len(variants)].CapFraction), 20)
				load[i] = i % c.nLoads
			}
			lanes := pdn.NewLanes(nets, load, cycleTime, cfg.Substeps)
			defer lanes.Close()
			iLoad := make([]float64, c.nLoads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range iLoad {
					iLoad[j] = 20 + float64((i+j)&15)
				}
				lanes.Step(iLoad)
			}
		})
	}
}

// BenchmarkStreamNext measures synthetic instruction generation.
func BenchmarkStreamNext(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	s := p.NewStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

// BenchmarkImpedanceSolve measures the analytic frequency-domain solve.
func BenchmarkImpedanceSolve(b *testing.B) {
	n := pdn.New(pdn.Core2Duo())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.ImpedanceMag(1e6 + float64(i&1023)*1e5)
	}
}

// BenchmarkTelemetryOverhead measures the cost of the declared instruments
// on the simulation hot path, unbound vs bound: a full chip cycle, which
// makes no call into telemetry (its rails count their own substeps and
// publish them once per run). The off/on delta is the documented overhead
// budget (DESIGN §7): it must stay within ~5% of cycle time. The parallel
// cases step one chip per goroutine, as the session sweep runs one run per
// worker, so a shared per-cycle write would show up there as contention
// that the one-goroutine cases cannot see.
func BenchmarkTelemetryOverhead(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	q, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	newChip := func() *uarch.Chip {
		chip := uarch.NewChip(uarch.DefaultConfig())
		chip.SetStream(0, p.NewStream())
		chip.SetStream(1, q.NewStream())
		return chip
	}
	run := func(b *testing.B) {
		chip := newChip()
		defer chip.PublishSteps()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chip.Cycle()
		}
	}
	runParallel := func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			chip := newChip()
			defer chip.PublishSteps()
			for pb.Next() {
				chip.Cycle()
			}
		})
	}
	bound := func(run func(*testing.B)) func(*testing.B) {
		return func(b *testing.B) {
			defer telemetry.Install(telemetry.NewRegistry(), telemetry.NewTrace(0))()
			run(b)
		}
	}
	b.Run("off", run)
	b.Run("on", bound(run))
	b.Run("parallel/off", runParallel)
	b.Run("parallel/on", bound(runParallel))
}
