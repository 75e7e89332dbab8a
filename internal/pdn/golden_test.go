package pdn

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden kernel traces from the current integrator")

// goldenVariants are the decap processors the fused-kernel bit-identity
// contract covers: the unmodified chip and the two future-node stand-ins
// every execution-driven experiment sweeps.
var goldenVariants = []ProcVariant{Proc100, Proc25, Proc3}

// goldenTrace drives one network through the call mix the simulator uses —
// StepCycle at 6 substeps, raw Step at the substep dt, single-substep
// cycles whose dt exceeds the stability bound (exercising transparent
// subdivision), and oversized Step calls — and records every returned die
// voltage as raw float64 bits. It then runs the production 7-substep grid
// for 10,000 cycles, folding the whole network state of every cycle into
// a running FNV-64a digest recorded every 1,000 cycles: a rounding change
// can leave every sampled voltage intact and still move the state. Any
// change to the integrator's arithmetic, evaluation order, or state
// layout shows up as a bit flip against the committed trace.
func goldenTrace(v ProcVariant) []uint64 {
	p := Core2Duo().WithCapFraction(v.CapFraction)
	n := NewAtLoad(p, 8)
	const cycle = 1 / 1.86e9

	var bits []uint64
	rec := func(val float64) { bits = append(bits, math.Float64bits(val)) }

	// One chip cycle at a time, on a 6-substep grid.
	for i := 0; i < 240; i++ {
		rec(n.StepCycle(cycle, traceLoad(i), 6))
	}
	// Raw substep-granularity Step calls (the impedance/transient path).
	for i := 0; i < 120; i++ {
		rec(n.Step(cycle/6, traceLoad(i)))
	}
	// dt above the stability bound: Step must subdivide transparently.
	for i := 0; i < 48; i++ {
		rec(n.StepCycle(cycle, traceLoad(i), 1))
	}
	for i := 0; i < 24; i++ {
		rec(n.Step(3*cycle, traceLoad(i)))
	}
	// Back to the 6-substep grid after the dt changes above, so
	// coefficient re-caching after a dt switch is covered too.
	for i := 0; i < 60; i++ {
		rec(n.StepCycle(cycle, traceLoad(i), 6))
	}
	rec(n.V())
	rec(n.Time())

	// The production grid (uarch.DefaultConfig's 7 substeps), digesting
	// the whole state of every cycle.
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < 10_000; i++ {
		n.StepCycle(cycle, traceLoad(i), 7)
		for _, x := range [...]float64{n.iL0, n.iL1, n.iL2, n.iLb, n.vC1, n.vP, n.vCb, n.vC3,
			n.vDie, n.t, n.regBias, n.regErr, n.iEMA} {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
			h.Write(word[:])
		}
		if (i+1)%1000 == 0 {
			bits = append(bits, h.Sum64())
		}
	}
	return bits
}

// traceLoad is goldenTrace's current in amperes at step i. It carries a
// fusion barrier on every product that feeds a sum and takes its sine
// from traceSin, not math.Sin, whose polynomial a compiler that fuses
// multiply-adds (arm64 and others) would fuse, so the loads, like the
// kernel, have the same bits on every architecture.
func traceLoad(i int) float64 {
	s := traceSin(float64(float64(i) * 0.37))
	return 8 + float64(14*s) + float64(i%7)
}

// traceSin is a copy of the Go standard library's pure-Go sine (math/sin.go,
// Copyright 2011 The Go Authors, BSD-style license; from the Cephes
// library's sin.c), with a float64 conversion on every product that feeds
// a sum. On amd64, which never fuses, it equals math.Sin bit for bit
// (TestTraceSinMatchesMathSin). It omits the standard library's
// Payne-Hanek reduction for arguments of 2**29 and beyond, which the
// trace never reaches.
func traceSin(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	switch {
	case x == 0 || math.IsNaN(x):
		return x // return ±0 || NaN()
	case math.IsInf(x, 0):
		return math.NaN()
	case math.Abs(x) >= 1<<29:
		panic(fmt.Sprintf("traceSin(%g): argument needs the Payne-Hanek reduction", x))
	}

	// make argument positive but save the sign
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}

	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4), as integer for tests on the phase angle
	y := float64(j)                // integer part of x/(Pi/4), as float

	// map zeros to origin
	if j&1 == 1 {
		j++
		y++
	}
	j &= 7 // octant modulo 2Pi radians (360 degrees)
	// Extended precision modular arithmetic
	z := ((x - float64(y*PI4A)) - float64(y*PI4B)) - float64(y*PI4C)

	// reflect in x axis
	if j > 3 {
		sign = !sign
		j -= 4
	}
	zz := z * z
	if j == 1 || j == 2 {
		q := float64(traceCosCoefs[0]*zz) + traceCosCoefs[1]
		q = float64(q*zz) + traceCosCoefs[2]
		q = float64(q*zz) + traceCosCoefs[3]
		q = float64(q*zz) + traceCosCoefs[4]
		q = float64(q*zz) + traceCosCoefs[5]
		y = 1.0 - float64(0.5*zz) + float64(zz*zz*q)
	} else {
		q := float64(traceSinCoefs[0]*zz) + traceSinCoefs[1]
		q = float64(q*zz) + traceSinCoefs[2]
		q = float64(q*zz) + traceSinCoefs[3]
		q = float64(q*zz) + traceSinCoefs[4]
		q = float64(q*zz) + traceSinCoefs[5]
		y = z + float64(z*zz*q)
	}
	if sign {
		y = -y
	}
	return y
}

// traceSinCoefs and traceCosCoefs are math/sin.go's sin and cos coefficients.
var (
	traceSinCoefs = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	traceCosCoefs = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

func goldenPath(v ProcVariant) string {
	return filepath.Join("testdata", "kernel_golden_"+v.Name+".txt")
}

// TestFusedKernelGolden pins the integrator output bit-for-bit. The
// committed traces were generated from the pre-fusion three-stage
// integrator; the fused kernel must reproduce them exactly (same IEEE-754
// bits, not merely within tolerance) across all three decap variants.
// Regenerate with `go test ./internal/pdn -run TestFusedKernelGolden -update`
// only when an intentional physics change is made, and say so in DESIGN §9.
func TestFusedKernelGolden(t *testing.T) {
	for _, v := range goldenVariants {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			got := goldenTrace(v)
			path := goldenPath(v)
			if *updateGolden {
				var sb strings.Builder
				for _, b := range got {
					fmt.Fprintf(&sb, "%016x\n", b)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d samples to %s", len(got), path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden trace (run with -update to generate): %v", err)
			}
			lines := strings.Fields(string(raw))
			if len(lines) != len(got) {
				t.Fatalf("golden %s has %d samples, trace produced %d", path, len(lines), len(got))
			}
			for i, line := range lines {
				want, err := strconv.ParseUint(line, 16, 64)
				if err != nil {
					t.Fatalf("golden %s line %d: %v", path, i+1, err)
				}
				if got[i] != want {
					t.Fatalf("sample %d diverged: got %016x (%v) want %016x (%v)",
						i, got[i], math.Float64frombits(got[i]), want, math.Float64frombits(want))
				}
			}
		})
	}
}

// TestStepZeroAllocs pins the zero-allocation contract of the hot kernels:
// neither a raw substep, a full default-substep cycle nor a Lanes cycle
// (packed, scalar and subdividing) may allocate.
func TestStepZeroAllocs(t *testing.T) {
	n := NewAtLoad(Core2Duo(), 20)
	const cycle = 1 / 1.86e9
	if avg := testing.AllocsPerRun(1000, func() {
		n.Step(cycle/6, 24)
	}); avg != 0 {
		t.Fatalf("Network.Step allocates %.1f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		n.StepCycle(cycle, 24, 6)
	}); avg != 0 {
		t.Fatalf("Network.StepCycle allocates %.1f allocs/op, want 0", avg)
	}
	loads := []float64{24, 30}
	for _, substeps := range []int{7, 6} { // the shared grid, then the subdividing one
		nets, _ := lanePair(7, true)
		ls := NewLanes(nets, []int{0, 1, 0, 1, 0, 1, 0}, cycle, substeps)
		if avg := testing.AllocsPerRun(1000, func() {
			ls.Step(loads)
		}); avg != 0 {
			t.Fatalf("Lanes.Step at %d substeps allocates %.1f allocs/op, want 0", substeps, avg)
		}
	}
}
