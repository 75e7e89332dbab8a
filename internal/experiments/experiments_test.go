package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sched"
	"voltsmooth/internal/workload"
)

// The experiments tests are the reproduction's end-to-end checks: each one
// asserts the qualitative claims of the corresponding paper figure — who
// wins, by roughly what factor, where crossovers fall — at the tiny scale.
// They share one session so expensive corpora and oracle tables are built
// once.

var (
	sessOnce sync.Once
	sess     *Session
)

func session(t *testing.T) *Session {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment shape checks are slow")
	}
	sessOnce.Do(func() { sess = NewSession(Tiny()) })
	return sess
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d experiments, want 22 (18 paper + 3 extensions + figx-recovery)", len(all))
	}
	// Ordering: extensions, then figures numerically, then tables.
	if all[0].ID != "ext1" || all[3].ID != "fig1" || all[len(all)-1].ID != "tab1" {
		t.Errorf("registry order wrong: %s … %s", all[0].ID, all[len(all)-1].ID)
	}
	if _, err := Lookup("fig8"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("Lookup accepted an unknown id")
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"tiny", "quick", "full"} {
		s, err := ScaleByName(n)
		if err != nil || s.Name != n {
			t.Errorf("ScaleByName(%s) = %+v, %v", n, s.Name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestFig1SwingsDouble(t *testing.T) {
	r := Fig1(session(t))
	if len(r.Projections) != 5 {
		t.Fatalf("%d nodes", len(r.Projections))
	}
	for i := 1; i < len(r.Projections); i++ {
		if r.Projections[i].Relative <= r.Projections[i-1].Relative {
			t.Errorf("swing not monotone at %s", r.Projections[i].Node.Name)
		}
	}
	at16 := r.Projections[3].Relative
	if at16 < 1.7 || at16 > 2.4 {
		t.Errorf("16nm relative swing %.2f, paper: doubles", at16)
	}
}

func TestFig2MarginCost(t *testing.T) {
	r := Fig2(session(t))
	// 20% margin at 45nm costs ~25% of peak frequency.
	c45 := r.Curves[0]
	var at20 float64
	for i, m := range c45.MarginPc {
		if m == 20 {
			at20 = c45.FreqPc[i]
		}
	}
	if at20 < 70 || at20 > 82 {
		t.Errorf("45nm keeps %.1f%% at 20%% margin, paper ~75%%", at20)
	}
}

func TestFig4Resonance(t *testing.T) {
	r := Fig4(context.Background(), session(t))
	if r.PeakFreqHz < 90e6 || r.PeakFreqHz > 250e6 {
		t.Errorf("resonance at %.0f MHz", r.PeakFreqHz/1e6)
	}
	if r.RedRatio1MHz < 3 || r.RedRatio1MHz > 8 {
		t.Errorf("reduced/full Z(1MHz) = %.2f, paper ~5x", r.RedRatio1MHz)
	}
	// The software loop must agree with the analytic profile within a
	// factor band (it measures the same network through the chip model).
	for i := range r.Freqs {
		loop, exact := r.LoopMeasured[i], r.AnalyticFull[i]
		if loop <= 0 {
			t.Fatalf("loop measurement %d non-positive", i)
		}
		if loop > exact*3+1 || loop < exact/3-1 {
			t.Errorf("loop vs analytic at %.0f MHz: %.2f vs %.2f",
				r.Freqs[i]/1e6, loop, exact)
		}
	}
}

func TestFig6DecapShape(t *testing.T) {
	r := Fig6(session(t))
	last := r.Responses[len(r.Responses)-1]
	if last.Variant != pdn.Proc0 || last.BootsStably {
		t.Error("Proc0 must fail stability testing")
	}
	for _, resp := range r.Responses[:len(r.Responses)-1] {
		if !resp.BootsStably {
			t.Errorf("%s failed stability testing", resp.Variant.Name)
		}
	}
	if last.RelativeP2P < 2 || last.RelativeP2P > 5 {
		t.Errorf("Proc0 relative swing %.2f", last.RelativeP2P)
	}
}

func TestFig7Distribution(t *testing.T) {
	r := Fig7(context.Background(), session(t))
	if r.MinDroopPc < 5 || r.MinDroopPc > 14 {
		t.Errorf("min droop %.2f%%, paper 9.6%% (within the 14%% margin)", r.MinDroopPc)
	}
	if r.FracBeyond4Pc > 0.02 {
		t.Errorf("%.3f%% of samples beyond -4%%; the tail must be rare", 100*r.FracBeyond4Pc)
	}
	// Most samples within the typical-case region.
	within := cdfAt(r.CDF, 4) - cdfAt(r.CDF, -4)
	if within < 0.60 {
		t.Errorf("only %.1f%% of samples within ±4%%", 100*within)
	}
	if r.Runs < 30 {
		t.Errorf("corpus has only %d runs", r.Runs)
	}
}

func TestFig8ResilientDesignSpace(t *testing.T) {
	r := Fig8(context.Background(), session(t), pdn.Proc100)
	// Optimal margin relaxes and improvement shrinks as cost grows.
	for i := 1; i < len(r.Optima); i++ {
		if r.Optima[i].Margin < r.Optima[i-1].Margin {
			t.Errorf("optimal margin tightened at cost %g", r.Costs[i])
		}
		if r.Optima[i].Improvement > r.Optima[i-1].Improvement+1e-9 {
			t.Errorf("improvement rose at cost %g", r.Costs[i])
		}
	}
	// Peak improvements in the paper's 13–21% band (we accept 7–22%).
	best := r.Optima[0].Improvement
	if best < 13 || best > 22 {
		t.Errorf("best improvement %.1f%%, paper 13–21%%", best)
	}
	if worst := r.Optima[len(r.Optima)-1].Improvement; worst < 2 {
		t.Errorf("coarsest-recovery improvement %.1f%%, want still positive and meaningful", worst)
	}
	// A dead zone exists for coarse recovery at aggressive margins.
	if len(r.DeadZones[len(r.DeadZones)-1]) == 0 {
		t.Error("no dead zone at 100k-cycle recovery")
	}
	if len(r.DeadZones[0]) != 0 {
		t.Error("1-cycle recovery should have no dead zone")
	}
}

func TestFig9FutureNodesNoisier(t *testing.T) {
	r := Fig9(context.Background(), session(t))
	p100, p3 := r.Rows[0], r.Rows[2]
	if p3.FracBeyond4Pc < 2*p100.FracBeyond4Pc {
		t.Errorf("Proc3 tail %.3f%% not ≫ Proc100 %.3f%%",
			100*p3.FracBeyond4Pc, 100*p100.FracBeyond4Pc)
	}
	if p3.MinDroopPc <= p100.MinDroopPc {
		t.Error("Proc3 deepest droop not beyond Proc100's")
	}
}

func TestFig10PocketShrinks(t *testing.T) {
	r := Fig10(context.Background(), session(t))
	// The improvement at a mid margin and mid cost degrades on the
	// future nodes (the blue pocket shrinking from Fig 10a to 10c).
	atMid := func(v int) float64 { return r.ImprovementAt(v, 1000, 0.05) }
	if atMid(2) >= atMid(0) {
		t.Errorf("Proc3 mid-pocket %.1f%% not below Proc100 %.1f%%", atMid(2), atMid(0))
	}
	// At the worst-case margin every chip degenerates to zero improvement.
	for v := range r.Variants {
		if imp := r.ImprovementAt(v, 1, 0.14); imp > 1e-6 || imp < -1e-6 {
			t.Errorf("variant %d improvement at 14%% margin = %g, want 0", v, imp)
		}
	}
}

func TestFig11Waveform(t *testing.T) {
	r := Fig11(session(t))
	if r.OvershootSpikes == 0 {
		t.Fatal("no overshoot spikes; TLB stalls must overshoot")
	}
	if r.ExpectedEvents == 0 {
		t.Fatal("microbenchmark produced no TLB misses")
	}
	// Spikes track the recurring TLB events (within a loose band: ringing
	// can split or merge envelope crossings).
	ratio := float64(r.OvershootSpikes) / float64(r.ExpectedEvents)
	if ratio < 0.2 || ratio > 3 {
		t.Errorf("spikes/events = %.2f, want recurring correspondence", ratio)
	}
	if len(r.TraceDevPc) < 100 {
		t.Errorf("trace too short: %d", len(r.TraceDevPc))
	}
}

func TestFig12BranchLargest(t *testing.T) {
	r := Fig12(context.Background(), session(t))
	br := r.RelativeOf(workload.EventBR)
	for _, k := range r.Events {
		if k != workload.EventBR && r.RelativeOf(k) > br {
			t.Errorf("%v swing %.2f exceeds BR %.2f; paper: BR largest", k, r.RelativeOf(k), br)
		}
	}
	for i, rel := range r.Relative {
		if rel < 1.1 {
			t.Errorf("event %v swing %.2f barely above idle", r.Events[i], rel)
		}
	}
}

func TestFig13InterferenceMatrix(t *testing.T) {
	r := Fig13(context.Background(), session(t))
	a, b, max := r.MaxCell()
	if a != workload.EventEXCP || b != workload.EventEXCP {
		t.Errorf("matrix max at %vx%v, paper: EXCPxEXCP", a, b)
	}
	if max < 1.3*r.SingleMax {
		t.Errorf("dual-core max %.2f not ≫ single-core max %.2f (paper: +42%%)", max, r.SingleMax)
	}
	// Pairing EXCP with any other event gives smaller swings than
	// EXCP with itself (Sec III-C).
	ei := len(r.Events) - 1
	for j := 0; j < ei; j++ {
		if r.Relative[ei][j] >= max {
			t.Errorf("EXCPx%v %.2f >= EXCPxEXCP %.2f", r.Events[j], r.Relative[ei][j], max)
		}
	}
	// Every pair is at least as noisy as the quieter member alone would
	// suggest: chip-wide swings grow when the second core activates.
	for i := range r.Events {
		for j := range r.Events {
			if r.Relative[i][j] < r.SingleMax*0.9 && i == j {
				t.Errorf("self-pair %v below single-core max", r.Events[i])
			}
		}
	}
}

func TestFig14PhaseStructure(t *testing.T) {
	r := Fig14(context.Background(), session(t))
	sphinx := r.SummaryOf("sphinx")
	gamess := r.SummaryOf("gamess")
	tonto := r.SummaryOf("tonto")
	if sphinx.Phases != 1 {
		t.Errorf("sphinx has %d phases, paper: none (flat)", sphinx.Phases)
	}
	if gamess.Phases < 3 || gamess.Phases > 8 {
		t.Errorf("gamess has %d phases, paper: four coarse phases", gamess.Phases)
	}
	if tonto.TransitionsPerKInterval <= gamess.TransitionsPerKInterval {
		t.Errorf("tonto oscillation rate %.1f not above gamess %.1f",
			tonto.TransitionsPerKInterval, gamess.TransitionsPerKInterval)
	}
}

func TestFig15StallCorrelation(t *testing.T) {
	r := Fig15(context.Background(), session(t))
	if r.Pearson < 0.85 {
		t.Errorf("droop↔stall correlation r = %.3f, paper: 0.97", r.Pearson)
	}
	// Heterogeneous mix: the noisiest benchmark is several times the
	// quietest.
	lo, hi := r.DroopsPerKc[0], r.DroopsPerKc[0]
	for _, d := range r.DroopsPerKc {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi < 3*lo {
		t.Errorf("droop heterogeneity too small: %.1f–%.1f", lo, hi)
	}
}

func TestFig16InterferenceKinds(t *testing.T) {
	r := Fig16(context.Background(), session(t))
	con, des := r.Count(sched.Constructive), r.Count(sched.Destructive)
	if con == 0 {
		t.Error("no constructive-interference windows (paper: droops nearly double)")
	}
	if des == 0 {
		t.Error("no destructive-interference windows (paper: droops at single-core level)")
	}
	// The constructive windows must be substantially noisier relative to
	// their solo baseline than the destructive ones.
	var conMax, desMin float64
	desMin = 1e9
	for i, k := range r.Kinds {
		ratio := r.Window.CoDroops[i] / r.Window.SoloDroops[i]
		switch k {
		case sched.Constructive:
			if ratio > conMax {
				conMax = ratio
			}
		case sched.Destructive:
			if ratio < desMin {
				desMin = ratio
			}
		}
	}
	if conMax < 1.3 {
		t.Errorf("strongest constructive window only %.2fx solo", conMax)
	}
	if desMin > 1.15 {
		t.Errorf("best destructive window %.2fx solo, want ≈1x", desMin)
	}
}

func TestFig17DestructiveOpportunity(t *testing.T) {
	r := Fig17(context.Background(), session(t))
	if r.DestructiveCount*2 < len(r.Rows) {
		t.Errorf("only %d of %d benchmarks have destructive co-schedules; paper: most",
			r.DestructiveCount, len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Box.Max < row.Box.Min {
			t.Errorf("%s: malformed boxplot", row.Name)
		}
	}
}

func TestFig18PolicyQuadrants(t *testing.T) {
	r := Fig18(context.Background(), session(t))
	cd, _ := r.RandomCentroid()
	// Droop policy produces the fewest normalized droops.
	if r.Droop.Droops >= r.IPC.Droops {
		t.Errorf("Droop policy droops %.3f not below IPC %.3f", r.Droop.Droops, r.IPC.Droops)
	}
	if r.Droop.Droops >= cd {
		t.Errorf("Droop policy droops %.3f not below random centroid %.3f", r.Droop.Droops, cd)
	}
	// IPC is droop-blind, but in this model cache-synergy pairing
	// incidentally reduces noise too (the paper: "reducing the number of
	// cache stalls mitigates some emergency penalties"), so no upper
	// bound is asserted on its droops — only that Droop still wins.
	// Hybrid policies land between the pure ones on droops.
	for _, h := range r.Hybrid {
		if h.Droops > r.IPC.Droops+0.05 {
			t.Errorf("%s droops %.3f above IPC", h.Policy, h.Droops)
		}
	}
	// IPC policy achieves at least the droop policy's normalized
	// throughput (it is the throughput-seeking policy).
	if r.IPC.Perf < r.Droop.Perf-0.02 {
		t.Errorf("IPC perf %.3f below Droop %.3f", r.IPC.Perf, r.Droop.Perf)
	}
}

func TestTab1Fig19Passing(t *testing.T) {
	r := Tab1Fig19(context.Background(), session(t))
	if len(r.Analyses) != 6 {
		t.Fatalf("%d cost rows", len(r.Analyses))
	}
	prev := r.Analyses[0]
	if prev.ExpectedImprovement < 10 {
		t.Errorf("1-cycle expected improvement %.1f%%, paper: 15.7%%", prev.ExpectedImprovement)
	}
	for _, a := range r.Analyses[1:] {
		if a.OptimalMargin < prev.OptimalMargin {
			t.Errorf("optimal margin tightened at cost %g", a.RecoveryCost)
		}
		if a.ExpectedImprovement > prev.ExpectedImprovement+1e-9 {
			t.Errorf("expected improvement rose at cost %g", a.RecoveryCost)
		}
		prev = a
	}
	// Fig 19: the Droop policy passes at least as many schedules as IPC
	// at every coarse recovery cost, and strictly more somewhere.
	strictly := false
	for _, a := range r.Analyses {
		d, i := a.PolicyPass["Droop"], a.PolicyPass["IPC"]
		if d < i {
			t.Errorf("cost %g: Droop passes %d < IPC %d", a.RecoveryCost, d, i)
		}
		if d > i {
			strictly = true
		}
		if d < a.SPECratePass {
			t.Errorf("cost %g: Droop passes %d, below SPECrate %d",
				a.RecoveryCost, d, a.SPECratePass)
		}
	}
	if !strictly {
		t.Error("Droop never strictly beats IPC; paper: consistently outperforms")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	s := session(t)
	for _, e := range All() {
		out := e.Run(context.Background(), s).Render()
		if !strings.Contains(out, "==") || len(out) < 80 {
			t.Errorf("%s renders suspiciously little output (%d bytes)", e.ID, len(out))
		}
	}
}

func TestSessionCachesCorpora(t *testing.T) {
	s := session(t)
	a := s.Corpus(context.Background(), pdn.Proc100)
	b := s.Corpus(context.Background(), pdn.Proc100)
	if a != b {
		t.Error("corpus not cached")
	}
	ta := s.PairTable(context.Background(), pdn.Proc3)
	tb := s.PairTable(context.Background(), pdn.Proc3)
	if ta != tb {
		t.Error("pair table not cached")
	}
}

func TestSpecProfilesSubset(t *testing.T) {
	s := NewSession(Tiny())
	ps := s.SpecProfiles()
	if len(ps) != Tiny().SpecSubset {
		t.Fatalf("subset size %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	// The subset must span the behavioural corners.
	for _, want := range []string{"mcf", "namd", "sphinx", "gamess"} {
		if !names[want] {
			t.Errorf("subset missing %s", want)
		}
	}
}
