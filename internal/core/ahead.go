package core

import (
	"runtime/debug"
	"sync"

	"voltsmooth/internal/parallel"
)

// blockCycles is how many cycles RunLanes' producer runs every chip ahead
// of the network kernel in one block. A block is long enough that handing
// it over costs nothing against simulating it, and short enough that the
// two blocks of a group stay in cache: 2,048-cycle blocks ran no faster
// and cost more memory.
const blockCycles = 512

// blockBufs recycles the producers' double buffers across groups, so a
// sweep of many groups does not leave a trail of them for the garbage
// collector to catch up with.
var blockBufs sync.Pool

// ahead is a producer goroutine that fills blocks of per-cycle loads one
// block ahead of the goroutine that consumes them. Two buffers travel
// between the two: full carries a filled block to the consumer and free
// carries a consumed one back.
type ahead struct {
	buf        *[]float64
	full, free chan []float64
	stop       chan struct{}
	// pe is the producer's panic. The producer writes it before it closes
	// full, and the consumer reads it only after full is closed.
	pe *parallel.PanicError
}

// startAhead starts produce on a goroutine of its own, for cycles cycles
// of width loads each, blockCycles cycles per block:
// produce(lo, loads) fills the loads of cycles lo, lo+1, … into loads,
// width per cycle. The caller takes the blocks in order with next, hands
// each back with release once it has read it, and calls close when it is
// done, on every path.
func startAhead(cycles uint64, width int, produce func(lo uint64, loads []float64)) *ahead {
	n := blockCycles * width
	buf, _ := blockBufs.Get().(*[]float64)
	if buf == nil || cap(*buf) < 2*n {
		b := make([]float64, 2*n)
		buf = &b
	}
	// Each channel has room for both buffers, so no send ever blocks.
	a := &ahead{
		buf:  buf,
		full: make(chan []float64, 2),
		free: make(chan []float64, 2),
		stop: make(chan struct{}),
	}
	a.free <- (*buf)[:n:n]
	a.free <- (*buf)[n : 2*n : 2*n]
	go func() {
		defer close(a.full)
		defer func() {
			if r := recover(); r != nil {
				// Keep a nested sweep's original stack, as parallel.For does.
				pe, ok := r.(*parallel.PanicError)
				if !ok {
					pe = &parallel.PanicError{Value: r, Stack: debug.Stack()}
				}
				a.pe = pe
			}
		}()
		for lo := uint64(0); lo < cycles; lo += blockCycles {
			var loads []float64
			select {
			case loads = <-a.free:
			case <-a.stop:
				return
			}
			loads = loads[:min(blockCycles, cycles-lo)*uint64(width)]
			produce(lo, loads)
			a.full <- loads
		}
	}()
	return a
}

// next returns the next filled block. A panic on the producer is
// re-raised here, on the consumer's goroutine.
func (a *ahead) next() []float64 {
	loads, ok := <-a.full
	if !ok {
		panic(a.pe)
	}
	return loads
}

// release hands a block the consumer has read back to the producer.
func (a *ahead) release(loads []float64) { a.free <- loads[:cap(loads)] }

// close stops the producer, waits for its goroutine to exit and recycles
// the buffers, so no goroutine outlives the run that started it.
func (a *ahead) close() {
	close(a.stop)
	for range a.full {
	}
	blockBufs.Put(a.buf)
}
