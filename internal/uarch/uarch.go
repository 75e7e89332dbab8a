// Package uarch models the multi-core processor that the paper measures:
// a Core 2 Duo-class chip whose per-cycle current draw is driven by
// pipeline activity and whose supply voltage comes from the internal/pdn
// ladder. It is deliberately not a cycle-accurate out-of-order simulator —
// the paper's causal story (Sec III-C) is that *stall events gate the
// clock, current collapses, and the refill after the stall surges it
// back*, and this model generates exactly those current ramps from the
// five event classes the paper microbenchmarks: L1 misses, L2 misses,
// TLB misses, branch mispredictions, and exceptions.
//
// Each core runs one workload.Stream. Every cycle a core either:
//   - issues up to IssueWidth instructions (activity ∝ weighted issue),
//   - serves a stall (clock-gated: activity collapses toward the floor),
//   - recovers from a flush (mispredict redirect), or
//   - sits in the OS idle loop.
//
// Ending a long stall triggers a refill burst — "functional units become
// busy and there is a surge in current activity" — which is what turns
// stalls into dI/dt events. All cores share one power-supply source, so
// their currents sum at the PDN's die node (the paper's Sec III-C
// multi-core interference mechanism).
package uarch

import (
	"fmt"
	"math"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/workload"
)

// CurrentModel converts core activity into amperes. The per-instruction
// relative weights follow the instruction-level power analysis approach of
// Tiwari et al. that the paper uses to build its current-consuming loops.
type CurrentModel struct {
	GatedAmps  float64 // per-core floor with the clock gated (deep stall)
	IdleAmps   float64 // per-core draw in the OS idle loop
	ActiveAmps float64 // per-core additional draw at full-width issue
	UncoreAmps float64 // shared (L2, interconnect, I/O) draw

	// RampAlpha is the per-cycle exponential smoothing factor of the
	// current ramp: clock gating does not cut current in a single cycle,
	// it collapses over a handful of cycles, and refill ramps likewise.
	RampAlpha float64

	// BurstBoost is the extra activity (above 1.0) during a post-stall
	// refill burst, modeling the surge when miss data returns.
	BurstBoost float64

	// TrapUncoreAmps is drawn from the shared uncore for each core that
	// is refilling after an exception microtrap: the trap path runs
	// through shared microcode/OS structures.
	TrapUncoreAmps float64

	// TrapContentionAmps is the additional shared-rail draw for every
	// trap-refilling core beyond the first: simultaneous traps contend
	// on the shared microcode/OS path, keeping the uncore saturated
	// while both cores restart. This is the mechanism behind the
	// paper's observation that the worst chip-wide swing occurs when
	// both cores run the EXCP microbenchmark (Fig 13: 2.42×).
	TrapContentionAmps float64
}

// EventResponse describes how the pipeline reacts to one stall-event
// class: how long retirement is blocked, how deeply the clock gates while
// waiting, and how long the refill surge lasts once the event resolves.
// Gating depth is the microarchitectural key to Fig 15: a 9-cycle L2 hit
// is almost fully hidden by the out-of-order window (Gate near normal
// activity, tiny dI/dt), whereas a main-memory miss drains the machine
// (Gate near zero, a large current edge on both ends).
type EventResponse struct {
	// Latency is the effective stall in cycles as seen by retirement.
	Latency int
	// Gate is the activity level while stalled (0 = fully clock-gated,
	// 1 = business as usual).
	Gate float64
	// Burst is the length, in cycles, of the refill surge after the
	// stall resolves ("functional units become busy and there is a
	// surge in current activity").
	Burst int
	// Surge scales the refill boost for this event class relative to
	// CurrentModel.BurstBoost. Zero means 1 (the default boost). An
	// exception microtrap restarts the entire pipeline at once and
	// surges hardest.
	Surge float64
}

// surge returns the effective boost multiplier.
func (r EventResponse) surge() float64 {
	if r.Surge == 0 {
		return 1
	}
	return r.Surge
}

// Config describes the chip.
type Config struct {
	NumCores   int
	ClockHz    float64
	IssueWidth int

	// Per-event pipeline responses.
	RespL2Hit EventResponse // L1 miss, L2 hit
	RespMem   EventResponse // L2 miss to main memory
	RespTLB   EventResponse // D-TLB miss page walk (adds to the access)
	RespFlush EventResponse // branch misprediction redirect
	RespExcp  EventResponse // exception microtrap

	// L2ContentionFactor models shared-L2 capacity contention: an L2 hit
	// on one core is upgraded to a full memory miss with probability
	// factor × (the other cores' recent L2 traffic per cycle). This is
	// what makes co-runner choice matter for throughput — the shared
	// cache is the resource the paper's prior-work schedulers optimize —
	// and it couples noisily: contention-induced misses are also deep
	// stall events. Zero disables contention.
	L2ContentionFactor float64

	Current CurrentModel
	PDN     pdn.Params
	// Substeps is the number of PDN integration steps per clock cycle.
	Substeps int
}

// DefaultConfig returns the Core 2 Duo E6300-class configuration used for
// every experiment: 2 cores at 1.86 GHz, 4-wide issue, and stall penalties
// in the ranges the paper's microbenchmarks exercise.
func DefaultConfig() Config {
	return Config{
		NumCores:   2,
		ClockHz:    1.86e9,
		IssueWidth: 4,
		// An L1 miss that hits the L2 is mostly absorbed by the OoO
		// window: execution thins out but the clock never gates hard.
		RespL2Hit: EventResponse{Latency: 9, Gate: 0.88, Burst: 0},
		// A miss to main memory drains the pipeline completely. The
		// 60-cycle figure is the *effective* serial penalty after
		// memory-level parallelism overlaps outstanding misses.
		RespMem: EventResponse{Latency: 60, Gate: 0.05, Burst: 8},
		// A TLB page walk blocks the access but the walker keeps some
		// of the machine busy.
		RespTLB: EventResponse{Latency: 26, Gate: 0.30, Burst: 5},
		// A mispredict drains the back end while fetch redirects; the
		// wrong-path work keeps some units busy so gating is partial.
		RespFlush: EventResponse{Latency: 10, Gate: 0.35, Burst: 2, Surge: 1.72},
		// An exception microtrap serializes the machine for a long time.
		RespExcp: EventResponse{Latency: 90, Gate: 0.06, Burst: 8, Surge: 2.0},

		Current: CurrentModel{
			GatedAmps:          2.0,
			IdleAmps:           3.0,
			ActiveAmps:         22.0,
			UncoreAmps:         3.0,
			RampAlpha:          0.35,
			BurstBoost:         0.45,
			TrapUncoreAmps:     0.5,
			TrapContentionAmps: 6.0,
		},
		L2ContentionFactor: 0.35,

		PDN: pdn.Core2Duo(),
		// 7 substeps puts the integration step (cycleTime/7 ≈ 77 ps) just
		// inside the PDN's stability bound (pdn.Network.MaxStableStep,
		// ≈ 77.5 ps for the Core2Duo ladder). The historical value of 6
		// missed the bound by 16%, so every substep silently subdivided
		// ×2 and a "6-substep" cycle actually integrated 12 steps —
		// nearly double the work for no accuracy the experiments'
		// tolerances could see. TestSubstepsAlignedToStabilityBound pins
		// the alignment against future parameter drift.
		Substeps: 7,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.NumCores < 1 {
		return fmt.Errorf("uarch: NumCores %d < 1", c.NumCores)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("uarch: ClockHz %g <= 0", c.ClockHz)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("uarch: IssueWidth %d < 1", c.IssueWidth)
	}
	for _, r := range []struct {
		name string
		v    EventResponse
	}{{"RespL2Hit", c.RespL2Hit}, {"RespMem", c.RespMem}, {"RespTLB", c.RespTLB},
		{"RespFlush", c.RespFlush}, {"RespExcp", c.RespExcp}} {
		if r.v.Latency < 0 || r.v.Burst < 0 {
			return fmt.Errorf("uarch: %s latency and burst must be non-negative", r.name)
		}
		if r.v.Gate < 0 || r.v.Gate > 1 {
			return fmt.Errorf("uarch: %s gate %g outside [0,1]", r.name, r.v.Gate)
		}
		if r.v.Surge < 0 {
			return fmt.Errorf("uarch: %s surge must be non-negative", r.name)
		}
	}
	cm := c.Current
	if cm.GatedAmps < 0 || cm.IdleAmps < cm.GatedAmps || cm.ActiveAmps <= 0 {
		return fmt.Errorf("uarch: current model ordering must be 0 <= gated <= idle, active > 0")
	}
	if cm.RampAlpha <= 0 || cm.RampAlpha > 1 {
		return fmt.Errorf("uarch: RampAlpha %g outside (0,1]", cm.RampAlpha)
	}
	if c.Substeps < 1 {
		return fmt.Errorf("uarch: Substeps %d < 1", c.Substeps)
	}
	if c.L2ContentionFactor < 0 || c.L2ContentionFactor > 1 {
		return fmt.Errorf("uarch: L2ContentionFactor %g outside [0,1]", c.L2ContentionFactor)
	}
	return c.PDN.Validate()
}

// instruction activity weights by class (relative dynamic power).
var classWeight = [...]float64{
	workload.ClassALU:    1.0,
	workload.ClassFPU:    1.25,
	workload.ClassLoad:   1.1,
	workload.ClassStore:  1.05,
	workload.ClassBranch: 0.9,
	workload.ClassIdle:   0,
}

// core is the per-core pipeline state.
type core struct {
	stream workload.Stream
	ctr    counters.Counters

	stallLeft  int     // cycles left in the current stall
	stallGate  float64 // activity level while the current stall lasts
	stallBurst int     // refill-surge length once the current stall ends
	stallSurge float64 // surge multiplier of the pending refill burst
	stallTrap  bool    // the pending burst refills from an exception
	flushLeft  int     // cycles left in a mispredict redirect
	burstLeft  int     // cycles left in the post-stall refill surge
	burstScale float64 // surge multiplier of the active burst
	burstTrap  bool    // the active burst is a trap refill
	aSmooth    float64 // smoothed activity driving current
	idling     bool    // last cycle was an idle-loop cycle
	l2Rate     float64 // EMA of this core's L2 accesses per cycle
}

// Chip wires cores to the power-delivery network they share.
type Chip struct {
	cfg       Config
	cores     []core
	net       *pdn.Network
	cycleTime float64
	cycles    uint64
	current   float64 // last total chip current
	voltage   float64 // last sensed voltage
	rng       uint64  // deterministic PRNG for contention outcomes

	// injectAmps is extra die current queued by InjectCurrent for the
	// next cycle (the fault-injection seam for PDN stimulus spikes).
	injectAmps float64

	// perCore holds each core's draw during the last cycle (CoreCurrent),
	// allocated once at construction and rewritten by every cycle so the
	// hot path performs zero allocations (pinned by
	// TestChipCycleZeroAllocs).
	perCore []float64
	// numCoresF and uncoreShare are per-cycle loop invariants resolved
	// at construction: the core count as a float and each core's share
	// of the uncore draw.
	numCoresF   float64
	uncoreShare float64
}

// rand returns a uniform value in [0,1) from the chip's deterministic
// xorshift64* stream.
func (c *Chip) rand() float64 {
	c.rng ^= c.rng >> 12
	c.rng ^= c.rng << 25
	c.rng ^= c.rng >> 27
	return float64((c.rng*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

// NewChip builds a chip; every core starts in the OS idle loop.
func NewChip(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Chip{
		cfg:       cfg,
		cores:     make([]core, cfg.NumCores),
		cycleTime: 1 / cfg.ClockHz,
		rng:       0xC04E7E47,
		perCore:   make([]float64, cfg.NumCores),
		numCoresF: float64(cfg.NumCores),
	}
	c.uncoreShare = cfg.Current.UncoreAmps / c.numCoresF
	idle := cfg.Current.UncoreAmps
	for i := range c.cores {
		c.cores[i].stream = workload.Idle()
		c.cores[i].aSmooth = 0
		idle += cfg.Current.IdleAmps
	}
	c.net = pdn.NewAtLoad(cfg.PDN, idle)
	c.current = idle
	c.voltage = cfg.PDN.VNom
	return c
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// SetStream assigns a workload to a core. Passing nil parks the core in
// the OS idle loop. The core's pipeline state is reset (a context switch).
func (c *Chip) SetStream(coreID int, s workload.Stream) {
	if coreID < 0 || coreID >= len(c.cores) {
		panic(fmt.Sprintf("uarch: core %d out of range", coreID))
	}
	if s == nil {
		s = workload.Idle()
	}
	co := &c.cores[coreID]
	co.stream = s
	co.stallLeft, co.flushLeft, co.burstLeft, co.stallBurst = 0, 0, 0, 0
}

// Counters returns the performance-counter file of a core.
func (c *Chip) Counters(coreID int) *counters.Counters {
	return &c.cores[coreID].ctr
}

// CycleCount returns the number of chip cycles simulated so far.
func (c *Chip) CycleCount() uint64 { return c.cycles }

// Voltage returns the sensed die voltage after the most recent cycle.
func (c *Chip) Voltage() float64 { return c.voltage }

// TotalCurrent returns the chip current drawn during the last cycle.
func (c *Chip) TotalCurrent() float64 { return c.current }

// CoreCurrent returns the current core coreID drew during the last cycle:
// its own draw plus its share of the uncore, trap-contention and injected
// currents. The cores' draws sum to TotalCurrent up to rounding, so a
// caller can drive a supply per core from them (the split supplies of
// core.RunLanes).
func (c *Chip) CoreCurrent(coreID int) float64 { return c.perCore[coreID] }

// Network exposes the underlying power-delivery network (for impedance
// analysis of the assembled platform).
func (c *Chip) Network() *pdn.Network { return c.net }

// PublishSteps adds the substeps the network integrated since its last
// publish to the pdn.steps counter (pdn.Network.PublishSteps). A run that
// builds a chip defers it right after NewChip.
func (c *Chip) PublishSteps() { c.net.PublishSteps() }

// Cycle advances the chip by one clock cycle: each core executes, the
// summed current drives the PDN, and the resulting die voltage is
// returned. This is the hot path of every experiment.
func (c *Chip) Cycle() float64 { return c.driveNet(c.CycleLoad()) }

// CycleLoad is the first half of Cycle: it advances every core's pipeline
// by one clock cycle, applies any injected current, advances the chip
// clock and returns the total die current, without stepping the chip's
// own network. Nothing in the pipeline reads the die voltage, so a caller
// can drive any number of networks from one CycleLoad per cycle, on the
// total or on each core's draw (core.RunLanes); Voltage then stays at its
// last value.
func (c *Chip) CycleLoad() float64 {
	cm := &c.cfg.Current
	uncoreShare := c.uncoreShare
	perCore := c.perCore
	total := 0.0
	trapping := 0
	for i := range c.cores {
		co := &c.cores[i]
		target := c.stepCore(co)
		co.aSmooth += float64(cm.RampAlpha * (target - co.aSmooth))
		amps := cm.GatedAmps + float64(co.aSmooth*cm.ActiveAmps)
		if co.idling && co.stallLeft == 0 && co.flushLeft == 0 {
			// The idle loop keeps a trickle above the gated floor.
			floor := cm.IdleAmps
			if amps < floor {
				amps = floor
			}
		}
		if co.burstLeft > 0 && co.burstTrap {
			amps += cm.TrapUncoreAmps
			trapping++
		}
		perCore[i] = amps + uncoreShare
		total += perCore[i]
	}
	if trapping > 1 {
		// Shared microcode/uncore contention; attribute evenly.
		extra := float64(float64(trapping-1) * cm.TrapContentionAmps)
		total += extra
		for i := range perCore {
			perCore[i] += extra / c.numCoresF
		}
	}
	return c.draw(total)
}

// StallCycle advances the chip by one clock cycle with every pipeline
// frozen: no instructions issue, no stall/burst countdowns tick, no
// counters or PRNG state advance — only the smoothed current collapses
// toward the clock-gated floor and the network integrates another cycle.
// This is the recovery stall of a resilient design (a Razor-style flush
// or a checkpoint restore holds the whole chip while the recovery
// hardware works), and the current collapse it causes is itself a dI/dt
// event: the refill after a recovery can trigger the next emergency,
// which is exactly the feedback the executed failsafe engine exists to
// measure.
func (c *Chip) StallCycle() float64 { return c.driveNet(c.StallLoad()) }

// StallLoad is the first half of StallCycle, as CycleLoad is of Cycle: it
// advances the chip by one frozen clock cycle, applies any injected
// current, advances the chip clock and returns the total die current,
// without stepping the chip's own network, so a group of engines can step
// their networks together (failsafe.RunGroup).
func (c *Chip) StallLoad() float64 {
	cm := &c.cfg.Current
	uncoreShare := c.uncoreShare
	perCore := c.perCore
	total := 0.0
	for i := range c.cores {
		co := &c.cores[i]
		co.aSmooth += float64(cm.RampAlpha * (0 - co.aSmooth))
		perCore[i] = cm.GatedAmps + float64(co.aSmooth*cm.ActiveAmps) + uncoreShare
		total += perCore[i]
	}
	return c.draw(total)
}

// InjectCurrent queues extra die current (amperes) to be drawn during the
// next cycle on top of whatever the cores draw — the fault-injection seam
// for voltage-spike stimuli on the PDN. Repeated calls before the next
// cycle accumulate; the queued amount is consumed by that cycle only.
// Injected current perturbs only the electrical state: core execution
// never observes it, so architectural replay stays deterministic under
// injection.
func (c *Chip) InjectCurrent(amps float64) { c.injectAmps += amps }

// draw applies any injected fault current to the cycle's per-core draws
// in c.perCore and to their sum, total, records the chip current and
// advances the chip clock. It returns the total die current.
func (c *Chip) draw(total float64) float64 {
	if c.injectAmps != 0 {
		total += c.injectAmps
		share := c.injectAmps / c.numCoresF
		for i := range c.perCore {
			c.perCore[i] += share
		}
		c.injectAmps = 0
	}
	c.current = total
	c.cycles++
	return total
}

// driveNet steps the chip's network for one cycle on the total current.
func (c *Chip) driveNet(total float64) float64 {
	c.voltage = c.net.StepCycle(c.cycleTime, total, c.cfg.Substeps)
	return c.voltage
}

// contentionPressure maps a co-runner L2 traffic rate (accesses/cycle)
// to eviction pressure in [0,1]; 0.05 accesses/cycle — a memory-bound
// co-runner — saturates it.
func contentionPressure(rate float64) float64 {
	x := rate / 0.05
	if x > 1 {
		x = 1
	}
	return x * x
}

// otherL2Rate returns the combined recent L2 traffic of all cores except
// the given one, capped at one access per cycle.
func (c *Chip) otherL2Rate(self *core) float64 {
	sum := 0.0
	for i := range c.cores {
		if &c.cores[i] != self {
			sum += c.cores[i].l2Rate
		}
	}
	return math.Min(sum, 1)
}

// stepCore advances one core by a cycle and returns its target activity
// level (0 = fully gated, 1 = full-width issue, >1 = refill burst).
func (c *Chip) stepCore(co *core) float64 {
	co.ctr.Cycles++
	const l2RateAlpha = 0.002
	co.l2Rate += float64(l2RateAlpha * (0 - co.l2Rate)) // decays unless refreshed below

	if co.stallLeft > 0 {
		co.stallLeft--
		co.ctr.StallCycles++
		if co.stallLeft == 0 {
			co.burstLeft = co.stallBurst
			co.burstScale = co.stallSurge
			co.burstTrap = co.stallTrap
		}
		return co.stallGate // gated to the event's depth while waiting
	}
	if co.flushLeft > 0 {
		co.flushLeft--
		co.ctr.StallCycles++
		co.ctr.FlushCycles++
		if co.flushLeft == 0 {
			co.burstLeft = c.cfg.RespFlush.Burst
			co.burstScale = c.cfg.RespFlush.surge()
			co.burstTrap = false
		}
		return c.cfg.RespFlush.Gate
	}

	issuedWeight := 0.0
	issued := 0
	co.idling = false
	for slot := 0; slot < c.cfg.IssueWidth; slot++ {
		in := co.stream.Next()
		if in.Class == workload.ClassIdle {
			if slot == 0 {
				co.idling = true
				co.ctr.StallCycles++
				return 0.02
			}
			break // cycle partially filled, then the core halts
		}
		issued++
		issuedWeight += classWeight[in.Class]
		co.ctr.Instructions++
		co.ctr.IssueSlots++

		stall := 0
		gate := 1.0
		burst := 0
		surge := 1.0
		apply := func(r EventResponse) {
			stall += r.Latency
			if r.Gate < gate {
				gate = r.Gate
			}
			if r.Burst > burst {
				burst = r.Burst
			}
			if r.surge() > surge {
				surge = r.surge()
			}
		}
		switch in.Mem {
		case workload.MemL2:
			co.ctr.L1Misses++
			co.l2Rate += 0.002 // refresh the traffic EMA
			// Shared-L2 contention: a co-runner's traffic can evict the
			// line, turning this hit into a full memory miss. Pressure
			// grows quadratically with the co-runners' traffic (both
			// capacity and bandwidth compound), saturating at the
			// configured factor.
			if q := c.cfg.L2ContentionFactor * contentionPressure(c.otherL2Rate(co)); q > 0 && c.rand() < q {
				co.ctr.L2Misses++
				apply(c.cfg.RespMem)
			} else {
				apply(c.cfg.RespL2Hit)
			}
		case workload.MemMain:
			co.ctr.L1Misses++
			co.ctr.L2Misses++
			co.l2Rate += 4 * 0.002 // bandwidth pressure: misses weigh more
			apply(c.cfg.RespMem)
		}
		if in.TLBMiss {
			co.ctr.TLBMisses++
			apply(c.cfg.RespTLB)
		}
		trap := false
		if in.Exception {
			co.ctr.Exceptions++
			apply(c.cfg.RespExcp)
			trap = true
		}
		if in.Mispredict {
			co.ctr.BranchMisp++
			co.flushLeft = c.cfg.RespFlush.Latency
		}
		if stall > 0 {
			co.stallLeft = stall
			co.stallGate = gate
			co.stallBurst = burst
			co.stallSurge = surge
			co.stallTrap = trap
		}
		if stall > 0 || in.Mispredict {
			break // the event ends this cycle's issue group
		}
	}

	target := issuedWeight / float64(c.cfg.IssueWidth)
	if co.burstLeft > 0 {
		co.burstLeft--
		scale := co.burstScale
		if scale == 0 {
			scale = 1
		}
		boost := float64(c.cfg.Current.BurstBoost * scale)
		target += boost
		return math.Min(target, 1.0+boost)
	}
	return math.Min(target, 1.0+c.cfg.Current.BurstBoost)
}
