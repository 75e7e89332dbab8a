package pdn

import (
	"math"
	"testing"
)

// TestTraceSinMatchesMathSin pins traceSin, goldenTrace's copy of the
// standard library's sine, to math.Sin bit for bit on every argument the
// trace uses. On amd64 math.Sin is that same pure-Go code, and no
// multiply-add fuses, so the two must agree exactly; elsewhere math.Sin
// may be assembly or fused, which is why the trace does not call it.
func TestTraceSinMatchesMathSin(t *testing.T) {
	for i := 0; i < 10_000; i++ {
		x := float64(i) * 0.37
		if got, want := traceSin(x), math.Sin(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("traceSin(%v) = %v (%016x), math.Sin = %v (%016x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
