//go:build !amd64

package nn

// No assembly kernels on this architecture; the portable blocked Go
// kernels in dense.go carry all stacked inference.
const haveAffineAsm = false

var useAffineAsm = false

func affineTransAVX(y, x, wt, b *float64, in, out, rows, yStride, xStride int) {
	panic("nn: no asm kernel")
}

func affineTransAVX32(y, x, wt, b *float32, in, out, rows, yStride, xStride int) {
	panic("nn: no asm kernel")
}
