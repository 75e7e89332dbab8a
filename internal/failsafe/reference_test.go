package failsafe

import (
	"context"
	"fmt"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// refRunCtx is the loop RunCtx ran before the engine became a per-cycle
// state machine stepped in lockstep groups (RunGroup): one run, its chip
// stepping its own network through Cycle and StallCycle. The equivalence
// tests hold RunGroup to it, and it returns the chip, its steps not yet
// published, so they can compare its network too.
func refRunCtx(ctx context.Context, cfg Config, streams []workload.Stream, usefulCycles uint64) (*Result, *uarch.Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if usefulCycles == 0 {
		return nil, nil, ErrNoWork
	}
	if len(streams) > cfg.Chip.NumCores {
		return nil, nil, fmt.Errorf("%w: %d streams on %d cores", ErrTooManyStreams, len(streams), cfg.Chip.NumCores)
	}

	chip := uarch.NewChip(cfg.Chip)
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
		return nil, chip, err
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
				return nil, chip, fmt.Errorf("failsafe: run cancelled at %d/%d useful cycles: %w",
					committed, usefulCycles, err)
			}
		}
		if chip.CycleCount()-wallStart > wallLimit {
			return nil, chip, fmt.Errorf("%w: %d wall cycles committed only %d of %d useful (%d emergencies)",
				ErrStuck, chip.CycleCount()-wallStart, committed, usefulCycles, res.Emergencies)
		}
		if cfg.Scheme.Kind == SchemeCheckpoint && committed-ckptCommitted >= cfg.Scheme.CheckpointInterval {
			if ckpt, err = chip.Snapshot(); err != nil {
				return nil, chip, err
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
					return nil, chip, err
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
	return res, chip, nil
}
