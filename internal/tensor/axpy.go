package tensor

// axpyMinWidth is the narrowest row the assembly axpy takes. Below it the
// call costs more than the lanes save, so narrower rows keep the inline Go
// loop. BenchmarkAxpyWidth (MatMul's row loop, [256,16]·[16,w], one P of an
// AVX2 Xeon) puts the crossover between 4 and 8: inline against Axpy it read
// 20.5 against 22.6 µs at w=4, 28.3 against 25.1 at w=8 and 49.9 against
// 27.0 at w=16.
const axpyMinWidth = 8

// simd reports whether axpy is the assembly routine. It is set once, at
// package initialisation, from the CPU's features; tests clear it to run the
// Go loops the assembly must match bit for bit.
var simd = haveSIMD()

// UseSIMD reports whether a kernel call whose rows are n wide sends them
// through Axpy. A kernel asks once per call; when the answer is no it runs
// the inline loop y[j] += a*x[j] instead, which Axpy matches bitwise.
func UseSIMD(n int) bool { return simd && n >= axpyMinWidth }

// Axpy computes y[j] += a*x[j] for every j < len(y) with the assembly
// routine (the Go loop where there is none): the inner loop of MatMul, its
// two backward products and the sparse kernels, for rows UseSIMD admits.
// Every element is rounded twice, product then sum, exactly as in the Go
// loop. x must be at least as long as y; a shorter x panics on the bounds
// check before anything is read.
func Axpy(a float64, x, y []float64) { axpy(a, x[:len(y)], y) }
