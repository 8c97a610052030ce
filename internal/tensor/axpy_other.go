//go:build !amd64 || purego

package tensor

// haveSIMD is false without the amd64 assembly: UseSIMD is always false and
// every kernel keeps its Go loop.
func haveSIMD() bool { return false }

// axpy is the Go loop, so that Axpy still works without the assembly.
func axpy(a float64, x, y []float64) {
	for j := range y {
		y[j] += a * x[j]
	}
}
