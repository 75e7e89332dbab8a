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
// partially filled.
func RunCtx(ctx context.Context, cfg Config, streams []workload.Stream, usefulCycles uint64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if usefulCycles == 0 {
		return nil, ErrNoWork
	}
	if len(streams) > cfg.Chip.NumCores {
		return nil, fmt.Errorf("%w: %d streams on %d cores", ErrTooManyStreams, len(streams), cfg.Chip.NumCores)
	}

	chip := uarch.NewChip(cfg.Chip)
	defer chip.PublishSteps()
	res := &Result{
		Margin:       cfg.Margin,
		Scheme:       cfg.Scheme,
		UsefulCycles: usefulCycles,
	}
	for i := 0; i < cfg.Chip.NumCores; i++ {
		var s workload.Stream
		if i < len(streams) {
			s = streams[i]
		}
		chip.SetStream(i, s)
		if s != nil {
			res.Names = append(res.Names, s.Name())
		} else {
			res.Names = append(res.Names, "idle")
		}
	}

	for i := uint64(0); i < cfg.WarmupCycles; i++ {
		chip.Cycle()
	}
	base := make([]counters.Counters, cfg.Chip.NumCores)
	for i := range base {
		base[i] = *chip.Counters(i)
	}

	// The engine checkpoints under both schemes: Razor never rolls back,
	// but taking the initial snapshot up front surfaces non-checkpointable
	// streams as a typed error before any work runs.
	ckpt, err := chip.Snapshot()
	if err != nil {
		return nil, err
	}
	var ckptCommitted uint64

	vnom := cfg.Chip.PDN.VNom
	threshold := vnom * (1 - cfg.Margin)
	scope := sense.NewScope(vnom, []float64{cfg.Margin})
	res.Scope = scope

	var inj *Injector
	if cfg.Faults != nil {
		inj = NewInjector(*cfg.Faults)
	}

	stall := func(n uint64) {
		for i := uint64(0); i < n; i++ {
			scope.Sample(chip.StallCycle())
		}
		res.RecoveryStallCycles += n
		failsafeStallCycles.Add(n)
	}

	// Livelock guard: generous enough for any sane scheme (each emergency
	// costs at most restore + interval + holdoff wall cycles, and
	// emergencies are at least a holdoff apart), yet finite.
	wallStart := chip.CycleCount()
	perEmergency := cfg.Scheme.FlushCycles + cfg.Scheme.RestoreCycles +
		cfg.Scheme.CheckpointInterval + cfg.HoldoffCycles + 1
	wallLimit := usefulCycles + (usefulCycles+1)*perEmergency + 1_000_000

	var committed, holdoff uint64
	below := false
	for committed < usefulCycles {
		if (chip.CycleCount()-wallStart)%cancelPollCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("failsafe: run cancelled at %d/%d useful cycles: %w",
					committed, usefulCycles, err)
			}
		}
		if chip.CycleCount()-wallStart > wallLimit {
			return nil, fmt.Errorf("%w: %d wall cycles committed only %d of %d useful (%d emergencies)",
				ErrStuck, chip.CycleCount()-wallStart, committed, usefulCycles, res.Emergencies)
		}
		if cfg.Scheme.Kind == SchemeCheckpoint && committed-ckptCommitted >= cfg.Scheme.CheckpointInterval {
			if ckpt, err = chip.Snapshot(); err != nil {
				return nil, err
			}
			ckptCommitted = committed
		}
		if inj != nil {
			if amps := inj.SpikeAmps(); amps != 0 {
				chip.InjectCurrent(amps)
			}
		}
		v := chip.Cycle()
		committed++
		scope.Sample(v)

		if holdoff > 0 {
			holdoff--
			continue
		}
		vObs, ok := v, true
		if inj != nil {
			vObs, ok = inj.ObserveVoltage(v)
		}
		if !ok {
			continue // sensor dropout: the detector saw nothing
		}
		isBelow := vObs < threshold
		if isBelow && !below {
			res.Emergencies++
			FailsafeEmergencies.Inc()
			if telemetry.Tracing() {
				telemetry.Emit(telemetry.Event{
					Kind:   "failsafe.emergency",
					ID:     cfg.Scheme.Kind.String(),
					Value:  vObs,
					Detail: fmt.Sprintf("committed=%d", committed),
				})
			}
			switch cfg.Scheme.Kind {
			case SchemeRazor:
				// Detection at commit: the droop cycle's work stands,
				// recovery is a fixed flush.
				stall(cfg.Scheme.FlushCycles)
				holdoff = cfg.HoldoffCycles
				failsafeFlushes.Inc()
				telemetry.Emit(telemetry.Event{
					Kind:  "failsafe.recovery",
					ID:    "flush",
					Value: float64(cfg.Scheme.FlushCycles),
				})
			case SchemeCheckpoint:
				lost := committed - ckptCommitted
				if err := chip.RestoreArch(ckpt); err != nil {
					return nil, err
				}
				committed = ckptCommitted
				res.ReplayedCycles += lost
				stall(cfg.Scheme.RestoreCycles)
				// Blind through the replay window plus the configured
				// re-arm latency; this is what guarantees the committed
				// high-water mark strictly grows.
				holdoff = lost + cfg.HoldoffCycles
				failsafeRollbacks.Inc()
				failsafeReplayedCycles.Add(lost)
				telemetry.Emit(telemetry.Event{
					Kind:  "failsafe.recovery",
					ID:    "rollback",
					Value: float64(lost),
				})
			}
			below = true // re-arm on the next rise above threshold
			continue
		}
		below = isBelow
	}

	res.TotalCycles = chip.CycleCount() - wallStart
	res.Counters = make([]counters.Counters, cfg.Chip.NumCores)
	for i := range res.Counters {
		res.Counters[i] = chip.Counters(i).Delta(base[i])
	}
	if inj != nil {
		res.DroppedSamples = inj.Dropped
		res.InjectedSpikes = inj.Spikes
	}
	return res, nil
}
