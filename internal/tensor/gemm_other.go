//go:build !amd64

package tensor

func cpuHasAVX() bool { return false }

// The assembly kernels exist only on amd64; useAVX is never true here.

func gemmAxpyAVX(c, a, b *float32, kc, as, ldb, w, rows, ldc, ars int) {
	panic("tensor: no AVX kernels on this architecture")
}

func gemmDotAVX(c, s, a, b *float32, kc, w, rows, ldc, lda int) {
	panic("tensor: no AVX kernels on this architecture")
}
