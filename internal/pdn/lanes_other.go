//go:build !amd64

package pdn

// useAVX is false off amd64: every network steps on the scalar kernel.
var useAVX = false

// stepPack is never called off amd64, where NewLanes builds no pack.
func stepPack(rows *packRows, dt float64, k int) {
	panic("pdn: no packed kernel on this architecture")
}
