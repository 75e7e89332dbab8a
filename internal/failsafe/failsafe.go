// Package failsafe executes the recovery mechanism that package resilient
// only prices. The analytical model (Sec III-B) charges every voltage
// emergency a fixed number of recovery cycles; this package wraps a
// uarch.Chip in the actual control loop of a resilient design — sense the
// die voltage every cycle, detect a margin crossing, stop the machine, and
// either flush (Razor-style, detection at commit so no work is lost) or
// roll back to the last explicit checkpoint and replay. Running schedules
// through the engine and comparing the executed slowdown against the
// model's closed form is the cross-validation the figX-recovery experiment
// reports.
//
// The engine deliberately distinguishes the two halves of the machine the
// snapshots distinguish: recovery replays *work* (architectural state),
// it does not rewind *physics* (the PDN keeps integrating through the
// recovery stall, and the current collapse of the stall plus the refill
// surge after it are themselves dI/dt events the next emergency can ride
// on). That feedback is exactly what the closed-form model cannot see and
// what the executed engine measures.
package failsafe

import (
	"context"
	"errors"
	"fmt"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// Typed errors for every way a run can be refused or abandoned. They are
// returned (wrapped with context), never panicked: the failsafe engine is
// itself the component whose job is graceful failure.
var (
	// ErrBadConfig reports an unusable engine configuration.
	ErrBadConfig = errors.New("failsafe: bad config")
	// ErrBadScheme reports an unusable recovery scheme.
	ErrBadScheme = errors.New("failsafe: bad recovery scheme")
	// ErrNoWork reports a run of zero useful cycles.
	ErrNoWork = errors.New("failsafe: zero useful cycles")
	// ErrTooManyStreams reports more workloads than cores.
	ErrTooManyStreams = errors.New("failsafe: more streams than cores")
	// ErrStuck reports a run abandoned by the livelock guard: recoveries
	// consumed the entire wall-cycle budget without committing the work.
	ErrStuck = errors.New("failsafe: no forward progress")
)

// SchemeKind selects the recovery mechanism.
type SchemeKind int

const (
	// SchemeRazor is implicit fine-grained recovery: the error is caught
	// at the commit stage (Razor-style double sampling), so no committed
	// work is lost and recovery is a fixed-cost pipeline flush.
	SchemeRazor SchemeKind = iota
	// SchemeCheckpoint is explicit coarse-grained recovery: the machine
	// periodically checkpoints architectural state and an emergency rolls
	// back to the last checkpoint, paying a restore stall and then
	// re-executing everything since.
	SchemeCheckpoint
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SchemeRazor:
		return "razor"
	case SchemeCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("SchemeKind(%d)", int(k))
}

// Scheme parameterizes the recovery mechanism, mirroring the paper's
// recovery-cost axis (Tab I spans 1 to 100k cycles per recovery).
type Scheme struct {
	Kind SchemeKind
	// FlushCycles is the fixed stall per emergency under SchemeRazor.
	FlushCycles uint64
	// CheckpointInterval is the committed-cycle spacing of explicit
	// checkpoints under SchemeCheckpoint. Snapshots themselves are free
	// (hardware shadow state); the interval sets how much work an
	// emergency can destroy.
	CheckpointInterval uint64
	// RestoreCycles is the stall paid to reinstate a checkpoint.
	RestoreCycles uint64
}

// Validate reports an unusable scheme.
func (s Scheme) Validate() error {
	switch s.Kind {
	case SchemeRazor:
		if s.FlushCycles == 0 {
			return fmt.Errorf("%w: razor needs FlushCycles >= 1", ErrBadScheme)
		}
	case SchemeCheckpoint:
		if s.CheckpointInterval == 0 {
			return fmt.Errorf("%w: checkpoint needs CheckpointInterval >= 1", ErrBadScheme)
		}
		if s.RestoreCycles == 0 {
			return fmt.Errorf("%w: checkpoint needs RestoreCycles >= 1", ErrBadScheme)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadScheme, int(s.Kind))
	}
	return nil
}

// EquivalentCost maps the scheme onto the analytical model's single
// recovery-cost knob: a Razor flush costs exactly FlushCycles, while a
// checkpoint emergency pays the restore stall plus, in expectation, half
// an interval of destroyed work.
func (s Scheme) EquivalentCost() float64 {
	switch s.Kind {
	case SchemeRazor:
		return float64(s.FlushCycles)
	case SchemeCheckpoint:
		return float64(s.RestoreCycles) + float64(s.CheckpointInterval)/2
	}
	return 0
}

// Config shapes one engine run.
type Config struct {
	// Chip is the platform; it is validated before the run starts.
	Chip uarch.Config
	// Margin is the aggressive voltage margin the resilient design runs
	// at: a droop past vnom·(1−Margin) is an emergency.
	Margin float64
	// Scheme is the recovery mechanism.
	Scheme Scheme
	// HoldoffCycles blinds the detector for this many cycles after a
	// recovery completes, on top of the replay window a rollback already
	// blinds through. It models the re-arm latency of the detection
	// hardware and guarantees forward progress: every rollback's holdoff
	// covers the replayed cycles, so the high-water mark of committed
	// work strictly grows.
	HoldoffCycles uint64
	// WarmupCycles run before measurement starts (rails settling, EMAs
	// filling), exactly as core.RunConfig treats warmup.
	WarmupCycles uint64
	// Faults optionally injects deterministic faults (PDN current
	// spikes, sensor dropout and quantization). Nil runs clean.
	Faults *Plan
}

// Validate reports an unusable configuration.
func (c Config) Validate() error {
	if err := c.Chip.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Margin <= 0 || c.Margin >= 1 {
		return fmt.Errorf("%w: margin %g outside (0,1)", ErrBadConfig, c.Margin)
	}
	if err := c.Scheme.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result is the executed-run ledger.
type Result struct {
	Names  []string // per-core workload names
	Margin float64
	Scheme Scheme

	// UsefulCycles is the committed work (the analytical model's C).
	UsefulCycles uint64
	// TotalCycles is the wall-clock cycle count: useful work plus
	// recovery stalls plus replayed cycles.
	TotalCycles uint64
	// Emergencies counts detected margin crossings (each triggered one
	// recovery). Under sensor faults this can undercount the true
	// electrical crossings the Scope records.
	Emergencies uint64
	// RecoveryStallCycles is time spent with the machine frozen
	// (flushes and checkpoint restores).
	RecoveryStallCycles uint64
	// ReplayedCycles is committed work destroyed by rollbacks and
	// re-executed (zero under SchemeRazor).
	ReplayedCycles uint64
	// DroppedSamples counts sensor observations lost to injected
	// dropout; the detector was blind on those cycles.
	DroppedSamples uint64
	// InjectedSpikes counts fault-current spike onsets delivered to the
	// PDN.
	InjectedSpikes uint64

	// Counters holds each core's committed counter deltas over the
	// useful work. Rollback-and-replay leaves them identical to an
	// uninterrupted run of the same cycles — the engine's core invariant.
	Counters []counters.Counters
	// Scope sampled the true die voltage on every wall cycle, including
	// recovery stalls.
	Scope *sense.Scope
}

// Improvement is the *executed* net performance improvement (percent) over
// the worst-case-margin baseline, the quantity the analytical
// resilient.Model.Improvement predicts: the frequency gain bought by the
// aggressive margin, discounted by the executed slowdown Total/Useful.
func (r *Result) Improvement(m resilient.Model) float64 {
	return 100 * (m.Gain(r.Margin)*float64(r.UsefulCycles)/float64(r.TotalCycles) - 1)
}

// cancelPollCycles is how often the engine's committed loop polls its
// context: every 4096 wall cycles — frequent enough that cancellation
// lands within microseconds of simulated work, rare enough to cost
// nothing against the per-cycle chip simulation.
const cancelPollCycles = 4096

// RunCtx executes usefulCycles of committed work on the configured chip
// with the recovery engine armed. streams assigns workloads to cores (nil
// entries and missing tails idle); every stream must be checkpointable
// under SchemeCheckpoint. The committed loop polls ctx every few thousand
// cycles and abandons the run with the context's error. Cancellation
// loses only the partial run — the engine's ledger is never returned
// partially filled. RunCtx is a RunGroup of one run.
func RunCtx(ctx context.Context, cfg Config, streams []workload.Stream, usefulCycles uint64) (*Result, error) {
	res, errs := RunGroup(ctx, []Run{{Config: cfg, Streams: streams, UsefulCycles: usefulCycles}})
	return res[0], errs[0]
}

// Run is one engine run of a lockstep group (RunGroup): its
// configuration, the workloads on its chip's cores and the committed work
// it must execute, as RunCtx takes them.
type Run struct {
	Config       Config
	Streams      []workload.Stream
	UsefulCycles uint64
}

// RunGroup executes runs in lockstep, each exactly as RunCtx would: every
// run's engine is a per-cycle state machine on its own chip, and the
// engines' networks step together through one pdn.Group, each on its own
// chip's current, so every engine reads its own die voltage every cycle
// and acts on it before its next cycle. A run that commits its work, or
// fails, drops out and the rest go on. Result i is RunCtx on runs[i]
// alone, bit for bit, whatever runs beside it; exactly one of a run's
// Result and error is nil. Every run's chip must share the first's clock and
// substep grid (one pdn.Group steps them); a run that does not is refused
// with ErrBadConfig.
func RunGroup(ctx context.Context, runs []Run) ([]*Result, []error) {
	engines, errs := newEngines(runs)
	defer func() {
		for _, e := range engines {
			if e != nil {
				e.chip.PublishSteps()
			}
		}
	}()
	stepEngines(ctx, engines)
	out := make([]*Result, len(runs))
	for i, e := range engines {
		switch {
		case e == nil:
		case e.err != nil:
			errs[i] = e.err
		default:
			out[i] = e.res
		}
	}
	return out, errs
}

// engine is one run's recovery loop as a per-cycle state machine: load
// returns its chip's current for the next wall cycle, and observe takes
// the die voltage its network reached and acts on it. Each wall cycle is
// a warmup cycle, a committed cycle or a recovery stall cycle. The
// committed-cycle iterations poll ctx, check the wall limit, take the
// checkpoint and draw the spike, in that order; stall cycles draw the
// frozen chip's current (StallLoad) and are sampled, but draw no spike
// and observe no dropout.
type engine struct {
	cfg       Config
	chip      *uarch.Chip
	inj       *Injector
	res       *Result
	threshold float64
	// err is the error that refused or abandoned the run; the engine
	// drops out of its group once it is set.
	err error

	warmup        uint64 // warmup cycles left
	base          []counters.Counters
	ckpt          *uarch.State
	ckptCommitted uint64
	wallStart     uint64
	wallLimit     uint64
	committed     uint64
	holdoff       uint64
	below         bool
	stalls        uint64 // recovery stall cycles left
}

// newEngines builds every run's engine. A run refused before its chip is
// built (an invalid configuration, no work, too many streams, a clock or
// grid unlike the group's) gets its error in errs and no engine; one
// whose streams cannot be checkpointed fails after its warmup, having
// stepped its network through it.
func newEngines(runs []Run) ([]*engine, []error) {
	engines := make([]*engine, len(runs))
	errs := make([]error, len(runs))
	var first *Config
	for i, r := range runs {
		cfg := r.Config
		if err := cfg.Validate(); err != nil {
			errs[i] = err
			continue
		}
		if r.UsefulCycles == 0 {
			errs[i] = ErrNoWork
			continue
		}
		if len(r.Streams) > cfg.Chip.NumCores {
			errs[i] = fmt.Errorf("%w: %d streams on %d cores", ErrTooManyStreams, len(r.Streams), cfg.Chip.NumCores)
			continue
		}
		if first == nil {
			first = &runs[i].Config
		} else if cfg.Chip.ClockHz != first.Chip.ClockHz || cfg.Chip.Substeps != first.Chip.Substeps {
			errs[i] = fmt.Errorf("%w: %g Hz in %d substeps beside a group at %g Hz in %d",
				ErrBadConfig, cfg.Chip.ClockHz, cfg.Chip.Substeps, first.Chip.ClockHz, first.Chip.Substeps)
			continue
		}

		vnom := cfg.Chip.PDN.VNom
		e := &engine{
			cfg:  cfg,
			chip: uarch.NewChip(cfg.Chip),
			res: &Result{
				Margin:       cfg.Margin,
				Scheme:       cfg.Scheme,
				UsefulCycles: r.UsefulCycles,
				Scope:        sense.NewScope(vnom, []float64{cfg.Margin}),
			},
			threshold: vnom * (1 - cfg.Margin),
			warmup:    cfg.WarmupCycles,
		}
		for c := 0; c < cfg.Chip.NumCores; c++ {
			var s workload.Stream
			if c < len(r.Streams) {
				s = r.Streams[c]
			}
			e.chip.SetStream(c, s)
			if s != nil {
				e.res.Names = append(e.res.Names, s.Name())
			} else {
				e.res.Names = append(e.res.Names, "idle")
			}
		}
		if cfg.Faults != nil {
			e.inj = NewInjector(*cfg.Faults)
		}
		if e.warmup == 0 {
			e.begin()
		}
		engines[i] = e
	}
	return engines, errs
}

// stepEngines steps engines (nil entries skipped) in lockstep until each
// has committed its work or failed, leaving each one's outcome in its res
// or err. It closes its group before it returns, so every network holds
// its state and counts its steps.
func stepEngines(ctx context.Context, engines []*engine) {
	var live []*engine
	for _, e := range engines {
		if e != nil {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return
	}
	chip := live[0].cfg.Chip
	group := pdn.NewGroup(1/chip.ClockHz, chip.Substeps)
	defer group.Close()
	nets := make([]*pdn.Network, len(live))
	iLoad := make([]float64, len(live))
	for {
		next := live[:0]
		for _, e := range live {
			switch {
			case e.err != nil:
			case e.finished():
				e.finish()
			default:
				load := e.load(ctx)
				if e.err == nil {
					iLoad[len(next)], nets[len(next)] = load, e.chip.Network()
					next = append(next, e)
				}
			}
		}
		if live = next; len(live) == 0 {
			return
		}
		for r, v := range group.Step(nets[:len(live)], iLoad[:len(live)]) {
			live[r].observe(v)
		}
	}
}

// begin ends the warmup: it snapshots the counters the committed work is
// measured from, takes the first checkpoint and arms the livelock guard.
func (e *engine) begin() {
	e.base = make([]counters.Counters, e.cfg.Chip.NumCores)
	for i := range e.base {
		e.base[i] = *e.chip.Counters(i)
	}
	// The engine checkpoints under both schemes: Razor never rolls back,
	// but taking the initial snapshot up front surfaces non-checkpointable
	// streams as a typed error before any work runs.
	if e.ckpt, e.err = e.chip.Snapshot(); e.err != nil {
		return
	}
	// Livelock guard: generous enough for any sane scheme (each emergency
	// costs at most restore + interval + holdoff wall cycles, and
	// emergencies are at least a holdoff apart), yet finite.
	e.wallStart = e.chip.CycleCount()
	sc := e.cfg.Scheme
	perEmergency := sc.FlushCycles + sc.RestoreCycles + sc.CheckpointInterval + e.cfg.HoldoffCycles + 1
	useful := e.res.UsefulCycles
	e.wallLimit = useful + (useful+1)*perEmergency + 1_000_000
}

// finished reports whether the run has committed its work, with no
// recovery stall left to serve.
func (e *engine) finished() bool {
	return e.warmup == 0 && e.stalls == 0 && e.committed >= e.res.UsefulCycles
}

// finish fills in the ledger of a run that committed its work.
func (e *engine) finish() {
	e.res.TotalCycles = e.chip.CycleCount() - e.wallStart
	e.res.Counters = make([]counters.Counters, e.cfg.Chip.NumCores)
	for i := range e.res.Counters {
		e.res.Counters[i] = e.chip.Counters(i).Delta(e.base[i])
	}
	if e.inj != nil {
		e.res.DroppedSamples = e.inj.Dropped
		e.res.InjectedSpikes = e.inj.Spikes
	}
}

// load advances the chip's pipeline by the next wall cycle and returns
// its current. A committed-cycle iteration that is abandoned (cancelled,
// stuck, or failing its checkpoint) sets err and draws nothing.
func (e *engine) load(ctx context.Context) float64 {
	switch {
	case e.stalls > 0:
		return e.chip.StallLoad()
	case e.warmup > 0:
		return e.chip.CycleLoad()
	}
	wall := e.chip.CycleCount() - e.wallStart
	if wall%cancelPollCycles == 0 {
		if err := ctx.Err(); err != nil {
			e.err = fmt.Errorf("failsafe: run cancelled at %d/%d useful cycles: %w", e.committed, e.res.UsefulCycles, err)
			return 0
		}
	}
	if wall > e.wallLimit {
		e.err = fmt.Errorf("%w: %d wall cycles committed only %d of %d useful (%d emergencies)",
			ErrStuck, wall, e.committed, e.res.UsefulCycles, e.res.Emergencies)
		return 0
	}
	if e.cfg.Scheme.Kind == SchemeCheckpoint && e.committed-e.ckptCommitted >= e.cfg.Scheme.CheckpointInterval {
		if e.ckpt, e.err = e.chip.Snapshot(); e.err != nil {
			return 0
		}
		e.ckptCommitted = e.committed
	}
	if e.inj != nil {
		if amps := e.inj.SpikeAmps(); amps != 0 {
			e.chip.InjectCurrent(amps)
		}
	}
	return e.chip.CycleLoad()
}

// observe takes the die voltage v the chip's network reached on the cycle
// load drew: it samples it, and on a committed cycle runs the detector
// and starts a recovery on a new crossing.
func (e *engine) observe(v float64) {
	switch {
	case e.stalls > 0:
		e.res.Scope.Sample(v)
		e.stalls--
		return
	case e.warmup > 0:
		if e.warmup--; e.warmup == 0 {
			e.begin()
		}
		return
	}
	e.committed++
	e.res.Scope.Sample(v)

	if e.holdoff > 0 {
		e.holdoff--
		return
	}
	vObs, ok := v, true
	if e.inj != nil {
		vObs, ok = e.inj.ObserveVoltage(v)
	}
	if !ok {
		return // sensor dropout: the detector saw nothing
	}
	isBelow := vObs < e.threshold
	if !isBelow || e.below {
		e.below = isBelow
		return
	}
	e.res.Emergencies++
	FailsafeEmergencies.Inc()
	if telemetry.Tracing() {
		telemetry.Emit(telemetry.Event{
			Kind:   "failsafe.emergency",
			ID:     e.cfg.Scheme.Kind.String(),
			Value:  vObs,
			Detail: fmt.Sprintf("committed=%d", e.committed),
		})
	}
	switch e.cfg.Scheme.Kind {
	case SchemeRazor:
		// Detection at commit: the droop cycle's work stands, recovery is
		// a fixed flush.
		e.stall(e.cfg.Scheme.FlushCycles)
		e.holdoff = e.cfg.HoldoffCycles
		failsafeFlushes.Inc()
		telemetry.Emit(telemetry.Event{
			Kind:  "failsafe.recovery",
			ID:    "flush",
			Value: float64(e.cfg.Scheme.FlushCycles),
		})
	case SchemeCheckpoint:
		lost := e.committed - e.ckptCommitted
		if e.err = e.chip.RestoreArch(e.ckpt); e.err != nil {
			return
		}
		e.committed = e.ckptCommitted
		e.res.ReplayedCycles += lost
		e.stall(e.cfg.Scheme.RestoreCycles)
		// Blind through the replay window plus the configured re-arm
		// latency; this is what guarantees the committed high-water mark
		// strictly grows.
		e.holdoff = lost + e.cfg.HoldoffCycles
		failsafeRollbacks.Inc()
		failsafeReplayedCycles.Add(lost)
		telemetry.Emit(telemetry.Event{
			Kind:  "failsafe.recovery",
			ID:    "rollback",
			Value: float64(lost),
		})
	}
	e.below = true // re-arm on the next rise above threshold
}

// stall freezes the chip for the next n wall cycles: the recovery stall,
// during which the network keeps integrating.
func (e *engine) stall(n uint64) {
	e.stalls = n
	e.res.RecoveryStallCycles += n
	failsafeStallCycles.Add(n)
}
