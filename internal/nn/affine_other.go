//go:build !amd64

package nn

// No assembly kernels on this architecture; the portable blocked Go
// kernels in dense.go carry all stacked inference, and the Go loops in
// mlp.go and adam.go all training.
const haveAffineAsm = false

var useAffineAsm = false

var useAVX512 = false

func affineLeakyAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64) {
	panic("nn: no asm kernel")
}

func affineLeakyAVX512(y, x, wt, b *float64, in, out, rows, yStride, xStride int, slope float64) {
	panic("nn: no asm kernel")
}

func affineBackwardAVX(gw, gb, xg, w, x, dy, act, gf *float64, alpha float64, in, out int) {
	panic("nn: no asm kernel")
}

func addClearAVX(dst, src *float64, n int) {
	panic("nn: no asm kernel")
}

func adamStepAVX(p, grad, m, v *float64, n int, beta1, omb1, beta2, omb2, c1, c2, lr, eps, scale float64) {
	panic("nn: no asm kernel")
}
