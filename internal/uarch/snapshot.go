package uarch

import (
	"errors"
	"fmt"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/workload"
)

// ErrNotCheckpointable reports a stream that cannot be snapshotted. Every
// stream in internal/workload implements workload.Checkpointable; external
// Stream implementations that do not cannot participate in rollback.
var ErrNotCheckpointable = errors.New("uarch: stream does not implement workload.Checkpointable")

// ErrStateMismatch reports a snapshot restored into a chip of a different
// shape (core count).
var ErrStateMismatch = errors.New("uarch: snapshot does not match chip shape")

// State is an opaque chip snapshot taken by Snapshot. It captures two
// halves of the machine:
//
//   - architectural state: per-core pipeline fields, counters, stream
//     positions, and the shared contention PRNG — everything that
//     determines which instructions execute next;
//   - electrical state: the network, cycle clock, and last
//     current/voltage — everything the physics integrates.
//
// Restore reinstates both halves; RestoreArch only the first, which is
// what a rollback does (recovery replays work, it does not rewind the
// power-delivery network). A State may be restored any number of times.
type State struct {
	cores   []core
	streams []any // per-core workload.Checkpointable snapshots
	net     pdn.Network
	cycles  uint64
	rng     uint64
	current float64
	voltage float64
	inject  float64
}

// Cycles returns the chip cycle count at the moment of the snapshot.
func (st *State) Cycles() uint64 { return st.cycles }

// Snapshot captures the complete chip state. It fails with a wrapped
// ErrNotCheckpointable if any core's stream cannot be snapshotted.
func (c *Chip) Snapshot() (*State, error) {
	st := &State{
		cores:   append([]core(nil), c.cores...),
		streams: make([]any, len(c.cores)),
		net:     *c.net,
		cycles:  c.cycles,
		rng:     c.rng,
		current: c.current,
		voltage: c.voltage,
		inject:  c.injectAmps,
	}
	for i := range c.cores {
		cp, ok := c.cores[i].stream.(workload.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("core %d stream %q: %w",
				i, c.cores[i].stream.Name(), ErrNotCheckpointable)
		}
		st.streams[i] = cp.Checkpoint()
	}
	return st, nil
}

// RestoreArch restores the architectural half of a snapshot — pipeline
// state, counters, stream positions, and the contention PRNG — while the
// electrical state (network, cycle clock, sensed voltage) keeps evolving
// forward. With the PRNG included, replaying the cycles executed since
// the snapshot re-derives the identical instruction-level outcome, which
// is the invariant rollback recovery is built on.
func (c *Chip) RestoreArch(st *State) error {
	if err := c.checkState(st); err != nil {
		return err
	}
	copy(c.cores, st.cores)
	for i := range c.cores {
		c.cores[i].stream.(workload.Checkpointable).Restore(st.streams[i])
	}
	c.rng = st.rng
	return nil
}

// Restore reinstates the complete snapshot, architectural and electrical,
// returning the chip to the exact moment Snapshot was called. The network
// keeps the steps it counted since: the work was done even though its
// trajectory is discarded.
func (c *Chip) Restore(st *State) error {
	if err := c.RestoreArch(st); err != nil {
		return err
	}
	c.net.Restore(&st.net)
	c.cycles = st.cycles
	c.current = st.current
	c.voltage = st.voltage
	c.injectAmps = st.inject
	return nil
}

func (c *Chip) checkState(st *State) error {
	if len(st.cores) != len(c.cores) {
		return fmt.Errorf("%w: snapshot has %d cores, chip has %d",
			ErrStateMismatch, len(st.cores), len(c.cores))
	}
	return nil
}
