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

	load := func(i int) float64 {
		return 8 + 14*math.Sin(float64(i)*0.37) + float64(i%7)
	}

	var bits []uint64
	rec := func(val float64) { bits = append(bits, math.Float64bits(val)) }

	// One chip cycle at a time, on a 6-substep grid.
	for i := 0; i < 240; i++ {
		rec(n.StepCycle(cycle, load(i), 6))
	}
	// Raw substep-granularity Step calls (the impedance/transient path).
	for i := 0; i < 120; i++ {
		rec(n.Step(cycle/6, load(i)))
	}
	// dt above the stability bound: Step must subdivide transparently.
	for i := 0; i < 48; i++ {
		rec(n.StepCycle(cycle, load(i), 1))
	}
	for i := 0; i < 24; i++ {
		rec(n.Step(3*cycle, load(i)))
	}
	// Back to the 6-substep grid after the dt changes above, so
	// coefficient re-caching after a dt switch is covered too.
	for i := 0; i < 60; i++ {
		rec(n.StepCycle(cycle, load(i), 6))
	}
	rec(n.V())
	rec(n.Time())

	// The production grid (uarch.DefaultConfig's 7 substeps), digesting
	// the whole state of every cycle.
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < 10_000; i++ {
		n.StepCycle(cycle, load(i), 7)
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
