package sched

import (
	"context"
	"reflect"
	"testing"

	"voltsmooth/internal/core"
	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

func onlineChip() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.PDN = cfg.PDN.WithCapFraction(pdn.Proc3.CapFraction)
	return cfg
}

func onlineJobs(t *testing.T, names []string, instr uint64) []*Job {
	t.Helper()
	var out []*Job
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, NewJob(p, instr))
	}
	return out
}

func TestPoliciesPickValidPairs(t *testing.T) {
	view := []JobView{{ID: 3, StallRatio: 0.8}, {ID: 7, StallRatio: 0.2}, {ID: 9, StallRatio: 0.5}}
	for _, p := range []OnlinePolicy{StallClusterPolicy{}, StallSpreadPolicy{}, NewRandomOnlinePolicy(5)} {
		a, b := p.Pick(view)
		if a == b {
			t.Errorf("%s picked the same job twice", p.Name())
		}
		valid := map[int]bool{3: true, 7: true, 9: true}
		if !valid[a] || !valid[b] {
			t.Errorf("%s picked outside the view: %d, %d", p.Name(), a, b)
		}
	}
}

func TestStallClusterPairsSimilar(t *testing.T) {
	view := []JobView{
		{ID: 0, StallRatio: 0.9}, {ID: 1, StallRatio: 0.85},
		{ID: 2, StallRatio: 0.2}, {ID: 3, StallRatio: 0.15},
	}
	a, b := StallClusterPolicy{}.Pick(view)
	if !(a == 0 && b == 1 || a == 1 && b == 0) {
		t.Errorf("cluster picked (%d,%d), want the two stalliest (0,1)", a, b)
	}
	a, b = StallSpreadPolicy{}.Pick(view)
	if !(a == 0 && b == 3) {
		t.Errorf("spread picked (%d,%d), want the extremes (0,3)", a, b)
	}
}

func TestSingleRunnableJobRunsAlone(t *testing.T) {
	view := []JobView{{ID: 4, StallRatio: 0.5}}
	for _, p := range []OnlinePolicy{StallClusterPolicy{}, StallSpreadPolicy{}, NewRandomOnlinePolicy(0)} {
		a, b := p.Pick(view)
		if a != 4 || b != -1 {
			t.Errorf("%s with one job picked (%d,%d), want (4,-1)", p.Name(), a, b)
		}
	}
}

func TestRunOnlineCompletesAllJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 10_000
	jobs := onlineJobs(t, []string{"mcf", "namd", "hmmer"}, 50_000)
	res, _ := runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, nil)
	if res.CompletedJobs != 3 {
		t.Fatalf("completed %d of 3 jobs", res.CompletedJobs)
	}
	for i, j := range jobs {
		if !j.done || j.RemainingInstr != 0 {
			t.Errorf("job %d not drained: %d instr left", i, j.RemainingInstr)
		}
	}
	if res.TotalCycles == 0 || res.Quanta == 0 {
		t.Error("no work recorded")
	}
	if res.Emergencies == 0 {
		t.Error("Proc3 run recorded no emergencies; margin accounting broken")
	}
}

func TestRunOnlineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	run := func() OnlineResult {
		cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
		cfg.QuantumCycles = 8_000
		res, _ := runOnline(context.Background(), cfg, onlineJobs(t, []string{"mcf", "gcc", "namd"}, 40_000), StallClusterPolicy{}, nil)
		return res
	}
	a, b := run(), run()
	if a.Emergencies != b.Emergencies || a.TotalCycles != b.TotalCycles {
		t.Errorf("online schedule not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunOnlineMaxQuantaBound(t *testing.T) {
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 5_000
	cfg.MaxQuanta = 3
	res, _ := runOnline(context.Background(), cfg, onlineJobs(t, []string{"mcf", "lbm"}, 1<<40), StallClusterPolicy{}, nil)
	if res.Quanta != 3 {
		t.Errorf("ran %d quanta, bound was 3", res.Quanta)
	}
	if res.CompletedJobs != 0 {
		t.Error("impossible completion")
	}
	if !res.Truncated {
		t.Error("schedule hit MaxQuanta with runnable jobs but Truncated is false")
	}
}

func TestRandomPolicyDeterministicAndVaried(t *testing.T) {
	view := []JobView{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	picks := func(seed int64) [][2]int {
		p := NewRandomOnlinePolicy(seed)
		var out [][2]int
		for i := 0; i < 32; i++ {
			a, b := p.Pick(view)
			out = append(out, [2]int{a, b})
		}
		return out
	}
	// Same seed, fresh instance: the identical pick sequence.
	a, b := picks(11), picks(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs across same-seed instances: %v vs %v", i, a[i], b[i])
		}
	}
	// Repeated identical views must still explore distinct pairs — the
	// regression the stateless version had, where any repeated runnable
	// set pinned the same pair until MaxQuanta.
	distinct := map[[2]int]bool{}
	for _, p := range a {
		distinct[p] = true
	}
	if len(distinct) < 2 {
		t.Errorf("32 picks over an unchanged view produced %d distinct pairs, want ≥ 2", len(distinct))
	}
}

func TestRandomPolicyScheduleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	run := func() OnlineResult {
		cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
		cfg.QuantumCycles = 8_000
		res, _ := runOnline(context.Background(), cfg, onlineJobs(t, []string{"mcf", "gcc", "namd"}, 40_000), NewRandomOnlinePolicy(7), nil)
		return res
	}
	a, b := run(), run()
	if a.Emergencies != b.Emergencies || a.TotalCycles != b.TotalCycles || a.Quanta != b.Quanta {
		t.Errorf("random schedule not deterministic for a fixed seed: %+v vs %+v", a, b)
	}
}

func TestRunOnlineEmptyScheduleReportsZeroRate(t *testing.T) {
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 2_000
	jobs := onlineJobs(t, []string{"mcf", "namd"}, 1)
	runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, nil)
	// Re-running a drained job set executes zero quanta; the rate must
	// come back as 0, not 0/0 = NaN.
	res, _ := runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, nil)
	if res.TotalCycles != 0 || res.Quanta != 0 {
		t.Fatalf("drained set still ran: %+v", res)
	}
	if res.DroopsPerKc != 0 {
		t.Errorf("DroopsPerKc = %v on an empty schedule, want 0", res.DroopsPerKc)
	}
	if res.Truncated {
		t.Error("empty schedule marked truncated")
	}
}

// dropAllFaults loses every counter observation: the scheduler must fall
// back to priors and IPC-estimated progress for the whole schedule.
type dropAllFaults struct{}

func (dropAllFaults) Corrupt(quantum, coreID int, d counters.Counters) (counters.Counters, bool) {
	return d, false
}

func TestRunOnlineResilientSurvivesTotalSensorLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 8_000
	cfg.MaxQuanta = 400
	jobs := onlineJobs(t, []string{"mcf", "namd"}, 30_000)
	res, _ := runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, dropAllFaults{})
	if res.CompletedJobs != 2 {
		t.Fatalf("blind schedule completed %d of 2 jobs: %+v", res.CompletedJobs, res)
	}
	if res.DegradedQuanta != res.Quanta {
		t.Errorf("every quantum lost its observations but only %d of %d marked degraded",
			res.DegradedQuanta, res.Quanta)
	}
	// Estimates never update past the prior when nothing is observed.
	for i, j := range jobs {
		if j.observed {
			t.Errorf("job %d marked observed despite total sensor loss", i)
		}
	}
}

// passFaults hands every counter observation through untouched.
type passFaults struct{}

func (passFaults) Corrupt(quantum, coreID int, d counters.Counters) (counters.Counters, bool) {
	return d, true
}

// TestRunOnlineResilientNilFaultMatchesRunOnline: a fault layer that
// corrupts nothing schedules exactly like none, so plausibleDelta discards
// no real observation.
func TestRunOnlineResilientNilFaultMatchesRunOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	run := func(fault CounterFault) OnlineResult {
		cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
		cfg.QuantumCycles = 8_000
		jobs := onlineJobs(t, []string{"mcf", "gcc"}, 30_000)
		res, _ := runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, fault)
		return res
	}
	a, b := run(nil), run(passFaults{})
	if a != b {
		t.Errorf("pass-through fault run diverged: %+v vs %+v", a, b)
	}
	if b.DegradedQuanta != 0 {
		t.Errorf("%d quanta discarded a real observation as implausible", b.DegradedQuanta)
	}
}

func TestRunOnlineObservesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("online run is slow")
	}
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 10_000
	jobs := onlineJobs(t, []string{"mcf", "namd"}, 60_000)
	runOnline(context.Background(), cfg, jobs, StallClusterPolicy{}, nil)
	// After running, the scheduler's estimates must reflect reality:
	// mcf far stallier than namd.
	if !jobs[0].observed || !jobs[1].observed {
		t.Fatal("jobs never observed")
	}
	if jobs[0].stallEMA < 2*jobs[1].stallEMA {
		t.Errorf("stall estimates not learned: mcf %.3f vs namd %.3f",
			jobs[0].stallEMA, jobs[1].stallEMA)
	}
}

func TestRunOnlinePanicsOnBadInput(t *testing.T) {
	cfg := DefaultOnlineConfig(onlineChip(), 0.023)
	for _, f := range []func(){
		func() { runOnline(context.Background(), cfg, nil, StallClusterPolicy{}, nil) },
		func() { NewJob(workload.Profile{}, 0) },
		func() {
			bad := cfg
			bad.QuantumCycles = 0
			runOnline(context.Background(), bad, []*Job{NewJob(mustProfile("mcf"), 10)}, StallClusterPolicy{}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// badPolicy picks an invalid pair to exercise validation.
type badPolicy struct{}

func (badPolicy) Name() string              { return "bad" }
func (badPolicy) Pick([]JobView) (int, int) { return 0, 0 }

func TestRunOnlineRejectsBadPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid pick")
		}
	}()
	cfg := DefaultOnlineConfig(onlineChip(), 0.023)
	cfg.QuantumCycles = 1000
	runOnline(context.Background(), cfg, onlineJobs(t, []string{"mcf", "namd"}, 10_000), badPolicy{}, nil)
}

// mustProfile is a panic-on-error lookup for the panic-table test above.
func mustProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// runOnline runs one schedule alone.
func runOnline(ctx context.Context, cfg OnlineConfig, jobs []*Job, policy OnlinePolicy, fault CounterFault) (OnlineResult, error) {
	res, err := RunOnline(ctx, cfg, []Schedule{{Jobs: jobs, Policy: policy, Fault: fault}})
	return res[0], err
}

// dropSomeFaults loses every third observation, by quantum and core.
type dropSomeFaults struct{}

func (dropSomeFaults) Corrupt(quantum, coreID int, d counters.Counters) (counters.Counters, bool) {
	return d, (quantum+coreID)%3 != 0
}

// TestRunOnlineLockstepEqualsSeparate pins the lockstep contract of
// RunOnline: K schedules run together give reflect.DeepEqual results to
// K separate calls, and the same sched.quanta, sched.swaps and
// sched.emergencies deltas. The schedules finish at different quanta, one
// is truncated at MaxQuanta while the others run on, and one observes its
// counters through a CounterFault.
func TestRunOnlineLockstepEqualsSeparate(t *testing.T) {
	cfg := DefaultOnlineConfig(onlineChip(), core.PhaseMarginFor(0.03))
	cfg.QuantumCycles = 4_000
	cfg.MaxQuanta = 30
	schedules := func() []Schedule {
		return []Schedule{
			{Jobs: onlineJobs(t, []string{"mcf", "namd", "hmmer"}, 20_000), Policy: StallClusterPolicy{}},
			{Jobs: onlineJobs(t, []string{"gcc", "lbm"}, 6_000), Policy: StallSpreadPolicy{}},
			{Jobs: onlineJobs(t, []string{"mcf", "gcc", "namd"}, 35_000), Policy: NewRandomOnlinePolicy(3), Fault: dropSomeFaults{}},
			{Jobs: onlineJobs(t, []string{"libquantum", "namd"}, 1<<40), Policy: StallClusterPolicy{}},
		}
	}
	type counts struct{ quanta, swaps, emergencies uint64 }
	measure := func(run func()) counts {
		reg := telemetry.NewRegistry()
		defer telemetry.Install(reg, nil)()
		run()
		return counts{reg.Counter("sched.quanta").Load(), reg.Counter("sched.swaps").Load(),
			reg.Counter("sched.emergencies").Load()}
	}

	var want []OnlineResult
	wantCounts := measure(func() {
		for _, sc := range schedules() {
			res, err := RunOnline(context.Background(), cfg, []Schedule{sc})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res...)
		}
	})
	var got []OnlineResult
	gotCounts := measure(func() {
		var err error
		if got, err = RunOnline(context.Background(), cfg, schedules()); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lockstep schedules differ from separate runs:\n got %+v\nwant %+v", got, want)
	}
	if gotCounts != wantCounts {
		t.Errorf("lockstep counted %+v, separate runs %+v", gotCounts, wantCounts)
	}
	quanta := map[int]bool{}
	for _, r := range want {
		quanta[r.Quanta] = true
	}
	if len(quanta) != len(want) || !want[3].Truncated || want[0].Truncated || want[2].DegradedQuanta == 0 {
		t.Errorf("schedules do not cover distinct lengths, one truncation and a degraded run: %+v", want)
	}
}
