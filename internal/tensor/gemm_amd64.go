package tensor

// cpuHasAVX reports AVX in CPUID and YMM state enabled by the OS (XGETBV).
func cpuHasAVX() bool

// gemmAxpyAVX, gemmDotAVX and gemmDotTAVX are the register kernels of
// gemm_amd64.s. They read and write exactly the extents gemmAxpy, gemmDot
// and gemmTBRangeInPlace cut their operands to, and check none of them.
//
//go:noescape
func gemmAxpyAVX(c, a, b *float32, kc, as, ldb, w, rows, ldc, ars int)

//go:noescape
func gemmDotAVX(c, s, a, b *float32, kc, w, rows, ldc, lda int)

//go:noescape
func gemmDotTAVX(c, a, b *float32, k, n int)
