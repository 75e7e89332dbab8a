package sched

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// The online scheduler is the deployment the paper's stall-ratio metric
// exists for: "Such a high correlation between coarse-grained performance
// counter data … and very fine-grained voltage noise measurements implies
// that high-latency software solutions are applicable to voltage noise."
// Unlike the oracle study (PairTable), nothing here sees a droop counter:
// the scheduler reads only the architectural performance counters each
// quantum and infers noise behaviour from the stall ratio.

// Job is one program in the scheduler's run queue with remaining work.
type Job struct {
	Profile workload.Profile
	// RemainingInstr is the work left until the job completes.
	RemainingInstr uint64

	stream workload.Stream // persists across quanta (its own position)
	// stallEMA is the scheduler's noise estimate from observed counters.
	stallEMA float64
	ipcEMA   float64
	observed bool
	done     bool
}

// JobView is the per-job state an online policy may see: counters-derived
// estimates only, never droop measurements.
type JobView struct {
	ID         int
	StallRatio float64
	IPC        float64
	Observed   bool
}

// OnlinePolicy picks the next pair of runnable jobs from counter-derived
// views. Returning the same index twice is not allowed; with one runnable
// job the scheduler runs it against an idle core automatically.
type OnlinePolicy interface {
	Name() string
	Pick(view []JobView) (a, b int)
}

// StallClusterPolicy is the noise-aware online policy: co-schedule jobs
// with *similar* stall ratios. On this platform (as in the oracle Droop
// study) pairing like with like minimizes chip-wide emergencies: two
// stally programs' droop events merge on the shared rail rather than
// spreading across the whole schedule, while two busy programs keep each
// other's current draw continuous.
type StallClusterPolicy struct{}

// Name implements OnlinePolicy.
func (StallClusterPolicy) Name() string { return "stall-cluster" }

// Pick implements OnlinePolicy: the two runnable jobs with the closest
// stall ratios (preferring the stalliest cluster first so noisy jobs
// retire while co-run with their own kind).
func (StallClusterPolicy) Pick(view []JobView) (int, int) {
	if len(view) < 2 {
		return view[0].ID, -1
	}
	sorted := append([]JobView(nil), view...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StallRatio > sorted[j].StallRatio })
	return sorted[0].ID, sorted[1].ID
}

// StallSpreadPolicy is the contrast policy: pair the stalliest job with
// the least stally one ("keep the adjacent core busy"). Included because
// it is the intuitive first guess the paper's Sec IV-C discussion entertains;
// measured against StallClusterPolicy it loses on this platform.
type StallSpreadPolicy struct{}

// Name implements OnlinePolicy.
func (StallSpreadPolicy) Name() string { return "stall-spread" }

// Pick implements OnlinePolicy.
func (StallSpreadPolicy) Pick(view []JobView) (int, int) {
	if len(view) < 2 {
		return view[0].ID, -1
	}
	sorted := append([]JobView(nil), view...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StallRatio > sorted[j].StallRatio })
	return sorted[0].ID, sorted[len(sorted)-1].ID
}

// RandomOnlinePolicy picks runnable pairs uniformly. It is stateful: one
// seeded generator, created on first use, drives every Pick. (The earlier
// stateless version reseeded from the view's shape each quantum, so any
// repeated runnable set repeated the same pair — a schedule could pin two
// jobs together until MaxQuanta. A persistent generator keeps sampling
// fresh pairs while staying fully deterministic for a given Seed.)
// Construct with NewRandomOnlinePolicy and do not share one instance
// across concurrent schedules.
type RandomOnlinePolicy struct {
	Seed int64
	rng  *rand.Rand
}

// NewRandomOnlinePolicy returns a seeded random pairing policy.
func NewRandomOnlinePolicy(seed int64) *RandomOnlinePolicy {
	return &RandomOnlinePolicy{Seed: seed}
}

// Name implements OnlinePolicy.
func (*RandomOnlinePolicy) Name() string { return "random" }

// Pick implements OnlinePolicy.
func (r *RandomOnlinePolicy) Pick(view []JobView) (int, int) {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed))
	}
	if len(view) < 2 {
		return view[0].ID, -1
	}
	i := r.rng.Intn(len(view))
	j := r.rng.Intn(len(view) - 1)
	if j >= i {
		j++
	}
	return view[i].ID, view[j].ID
}

// OnlineResult summarizes one complete schedule execution.
type OnlineResult struct {
	Policy        string
	TotalCycles   uint64
	Emergencies   uint64 // margin crossings over the whole schedule
	DroopsPerKc   float64
	Quanta        int
	CompletedJobs int
	// Truncated reports that the schedule hit MaxQuanta with runnable
	// jobs left: the cycle and emergency totals cover a prefix of the
	// workload, not a completed schedule.
	Truncated bool
	// DegradedQuanta counts quanta in which at least one counter
	// observation was discarded as corrupt or missing and the scheduler
	// fell back to its prior estimate (resilient runs only).
	DegradedQuanta int
}

// OnlineConfig shapes the scheduler run.
type OnlineConfig struct {
	Chip uarch.Config
	// QuantumCycles is the scheduling interval (the paper's coarse
	// counter-sampling granularity).
	QuantumCycles uint64
	// Margin is the emergency threshold measured for the report (the
	// scheduler itself never sees it).
	Margin float64
	// EMAAlpha is the smoothing applied to counter observations.
	EMAAlpha float64
	// MaxQuanta bounds runaway schedules (0 = no bound).
	MaxQuanta int
}

// DefaultOnlineConfig returns sensible defaults for a Proc3-class chip.
func DefaultOnlineConfig(chip uarch.Config, margin float64) OnlineConfig {
	return OnlineConfig{
		Chip:          chip,
		QuantumCycles: 25_000,
		Margin:        margin,
		EMAAlpha:      0.4,
	}
}

// NewJob builds a job with the given amount of work.
func NewJob(p workload.Profile, instructions uint64) *Job {
	if instructions == 0 {
		panic("sched: NewJob with no work")
	}
	return &Job{Profile: p, RemainingInstr: instructions}
}

// CounterFault corrupts or drops the scheduler's view of one per-quantum
// counter delta — the fault-injection seam for degraded performance
// monitoring (internal/failsafe provides a seeded implementation). It
// receives only a copy of the observed delta: chip state is never
// touched, so the corruption degrades the scheduler's information, not
// the machine. Implementations must be deterministic in (quantum, coreID)
// and their own seed.
type CounterFault interface {
	// Corrupt transforms the observed delta for the given quantum and
	// core. Returning ok=false marks the observation as lost entirely
	// (a dropped-out monitoring sensor).
	Corrupt(quantum, coreID int, d counters.Counters) (out counters.Counters, ok bool)
}

// Schedule is one job set to run to completion under one policy, with an
// optional fault on its counter observations (see RunOnline). Schedules
// run together must not share jobs or a stateful policy instance.
type Schedule struct {
	Jobs   []*Job
	Policy OnlinePolicy
	Fault  CounterFault
}

// schedule is one Schedule's run state inside RunOnline.
type schedule struct {
	Schedule
	chip         *uarch.Chip
	scope        *sense.Scope
	res          OnlineResult
	prevA, prevB int // -2: no quantum scheduled yet (-1 means idle core)
	a, b         int
	snapA, snapB counters.Counters
}

// RunOnline executes each schedule's job set to completion under its
// policy and reports, per schedule, total time and chip-wide emergencies.
// Jobs run two at a time in quanta; between quanta the scheduler reads
// each core's counter deltas, updates its stall-ratio estimates, and
// re-picks. Unobserved jobs carry a neutral prior so every job gets
// scheduled early on.
//
// Each schedule runs on its own chip, and the schedules step in lockstep,
// quantum by quantum: every running schedule's network steps through one
// pdn.Lanes on its own chip's current, so result i equals RunOnline on
// schedules[i] alone, whatever runs beside it. A schedule that completes
// or reaches MaxQuanta drops out, and the rest go on.
//
// A non-nil fault degrades the performance-monitoring path: every counter
// observation passes through it, and any observation that is lost or
// implausible is discarded instead of poisoning the estimates. The policy
// keeps scheduling on each job's previous estimate — the neutral prior,
// for a job never cleanly observed — and job progress is charged from the
// IPC estimate so the schedule still drains. Quanta that lost at least one
// observation are counted in OnlineResult.DegradedQuanta.
//
// The scheduler polls ctx at quantum boundaries (its natural phase
// boundary — a quantum is one indivisible chip simulation) and, when
// cancelled, returns the partial results, each unfinished one marked
// Truncated, together with the context's error.
func RunOnline(ctx context.Context, cfg OnlineConfig, schedules []Schedule) ([]OnlineResult, error) {
	if len(schedules) == 0 {
		panic("sched: RunOnline with no schedules")
	}
	if cfg.QuantumCycles == 0 {
		panic("sched: zero quantum")
	}
	all := make([]*schedule, len(schedules))
	for i, sc := range schedules {
		if len(sc.Jobs) == 0 {
			panic("sched: RunOnline with no jobs")
		}
		for _, j := range sc.Jobs {
			if j.stream == nil {
				j.stream = j.Profile.NewStream()
			}
			j.stallEMA = 0.5 // neutral prior until observed
			j.ipcEMA = 1
		}
		chip := uarch.NewChip(cfg.Chip)
		defer chip.PublishSteps()
		all[i] = &schedule{
			Schedule: sc,
			chip:     chip,
			scope:    sense.NewScope(cfg.Chip.PDN.VNom, []float64{cfg.Margin}),
			res:      OnlineResult{Policy: sc.Policy.Name()},
			prevA:    -2,
			prevB:    -2,
		}
	}
	results := func() []OnlineResult {
		out := make([]OnlineResult, len(all))
		for i, o := range all {
			out[i] = o.res
		}
		return out
	}

	// The group steps the running schedules' networks, and is closed
	// before the chips publish their steps.
	group := pdn.NewGroup(1/cfg.Chip.ClockHz, cfg.Chip.Substeps)
	defer group.Close()
	live := append([]*schedule(nil), all...)
	views := make([][]JobView, len(all))
	iLoad := make([]float64, len(all))
	nets := make([]*pdn.Network, 0, len(all))
	for {
		// A schedule whose jobs are all done is complete, even when ctx
		// is cancelled.
		next := live[:0]
		for _, o := range live {
			if view := o.runnable(); len(view) > 0 {
				views[len(next)] = view
				next = append(next, o)
			} else {
				finish(&o.res, o.scope, cfg)
			}
		}
		live = next
		if len(live) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			for _, o := range live {
				o.res.Truncated = true
				finish(&o.res, o.scope, cfg)
			}
			return results(), err
		}
		next, nets = live[:0], nets[:0]
		for r, o := range live {
			if cfg.MaxQuanta > 0 && o.res.Quanta >= cfg.MaxQuanta {
				o.res.Truncated = true
				finish(&o.res, o.scope, cfg)
				continue
			}
			o.pick(views[r])
			next, nets = append(next, o), append(nets, o.chip.Network())
		}
		live = next
		if len(live) == 0 {
			break
		}

		for i := uint64(0); i < cfg.QuantumCycles; i++ {
			for r, o := range live {
				iLoad[r] = o.chip.CycleLoad()
			}
			for r, v := range group.Step(nets, iLoad[:len(live)]) {
				live[r].scope.Sample(v)
			}
		}
		for _, o := range live {
			o.observe(cfg)
		}
	}
	return results(), nil
}

// runnable returns the views of the schedule's unfinished jobs.
func (o *schedule) runnable() []JobView {
	var out []JobView
	for i, j := range o.Jobs {
		if !j.done {
			out = append(out, JobView{ID: i, StallRatio: j.stallEMA, IPC: j.ipcEMA, Observed: j.observed})
		}
	}
	return out
}

// pick asks the policy for the next quantum's pair, counts the quantum
// and any swap, and puts the pair on the chip's cores.
func (o *schedule) pick(view []JobView) {
	a, b := o.Policy.Pick(view)
	validatePick(view, a, b)
	schedQuanta.Inc()
	if o.prevA != -2 && (a != o.prevA || b != o.prevB) {
		schedSwaps.Inc()
		if telemetry.Tracing() {
			telemetry.Emit(telemetry.Event{
				Kind:   "sched.swap",
				ID:     o.Policy.Name(),
				Detail: fmt.Sprintf("%d+%d->%d+%d", o.prevA, o.prevB, a, b),
				Value:  float64(o.res.Quanta),
			})
		}
	}
	o.prevA, o.prevB = a, b
	o.a, o.b = a, b
	o.snapA = o.assign(0, a)
	o.snapB = o.assign(1, b)
}

// assign puts job jobID (idle when negative) on a core and returns the
// core's counters before the quantum.
func (o *schedule) assign(coreID, jobID int) counters.Counters {
	if jobID < 0 {
		o.chip.SetStream(coreID, nil)
	} else {
		o.chip.SetStream(coreID, o.Jobs[jobID].stream)
	}
	return *o.chip.Counters(coreID)
}

// observe closes a quantum: it reads each core's counter delta through
// the fault, updates the jobs' estimates and charges their progress.
func (o *schedule) observe(cfg OnlineConfig) {
	o.res.TotalCycles += cfg.QuantumCycles
	o.res.Quanta++

	degraded := false
	update := func(jobID int, snap counters.Counters, coreID int) {
		if jobID < 0 {
			return
		}
		d := o.chip.Counters(coreID).Delta(snap)
		j := o.Jobs[jobID]
		if o.Fault != nil {
			var ok bool
			d, ok = o.Fault.Corrupt(o.res.Quanta-1, coreID, d)
			if !ok || !plausibleDelta(d, cfg) {
				// Lost or corrupt observation: keep the previous
				// estimate (the neutral prior for a job never
				// cleanly observed) and charge progress from the
				// IPC estimate so the schedule still drains.
				degraded = true
				retire(j, estimatedWork(j, cfg), &o.res)
				return
			}
		}
		if !j.observed {
			j.stallEMA = d.StallRatio()
			j.ipcEMA = d.IPC()
			j.observed = true
		} else {
			j.stallEMA += cfg.EMAAlpha * (d.StallRatio() - j.stallEMA)
			j.ipcEMA += cfg.EMAAlpha * (d.IPC() - j.ipcEMA)
		}
		retire(j, d.Instructions, &o.res)
	}
	update(o.a, o.snapA, 0)
	update(o.b, o.snapB, 1)
	if degraded {
		o.res.DegradedQuanta++
	}
}

// finish folds the scope's emergency counts into the result.
func finish(res *OnlineResult, scope *sense.Scope, cfg OnlineConfig) {
	res.Emergencies = scope.Crossings(cfg.Margin)
	if res.TotalCycles > 0 {
		res.DroopsPerKc = 1000 * float64(res.Emergencies) / float64(res.TotalCycles)
	}
	SchedEmergencies.Add(res.Emergencies)
}

// retire charges completed work against a job's remaining instructions.
func retire(j *Job, instructions uint64, res *OnlineResult) {
	if instructions >= j.RemainingInstr {
		j.RemainingInstr = 0
		j.done = true
		res.CompletedJobs++
		return
	}
	j.RemainingInstr -= instructions
}

// estimatedWork is the conservative per-quantum progress charged when an
// observation is lost: the job's IPC estimate over the quantum, floored
// at one instruction so a fully blind schedule still terminates.
func estimatedWork(j *Job, cfg OnlineConfig) uint64 {
	est := uint64(j.ipcEMA * float64(cfg.QuantumCycles))
	if est < 1 {
		est = 1
	}
	return est
}

// plausibleDelta reports whether an observed delta could have come from a
// real quantum on this chip: exactly the quantum's cycles elapsed, and no
// count exceeds its architectural ceiling. Corruption that escapes these
// bounds is indistinguishable from a real observation and is absorbed by
// the EMA like any other noise.
func plausibleDelta(d counters.Counters, cfg OnlineConfig) bool {
	w := uint64(cfg.Chip.IssueWidth)
	return d.Cycles == cfg.QuantumCycles &&
		d.Instructions <= d.Cycles*w &&
		d.StallCycles <= d.Cycles &&
		d.IssueSlots <= d.Cycles*w
}

func validatePick(view []JobView, a, b int) {
	okA, okB := false, b < 0
	for _, v := range view {
		if v.ID == a {
			okA = true
		}
		if v.ID == b {
			okB = true
		}
	}
	if !okA || !okB || a == b {
		panic(fmt.Sprintf("sched: policy picked invalid pair (%d, %d)", a, b))
	}
}
