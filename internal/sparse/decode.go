package sparse

// Decode-path neuron kernels: the single-row gather/scatter counterparts
// of FC1Sparse/FC2Sparse. A decode step computes one token row, where the
// training kernels' route through the GEMM cores does not pay: FC2's
// GemmRange packs a transposed B panel on every call, and with m = 1 that
// pack is swept by a single row, costing as much as the arithmetic it
// feeds. These run serially on the calling goroutine and allocate
// nothing, keeping the cached decode loop at 0 allocs/op.
//
// Both kernels are 4-way unrolled like the tiled GEMM micro-kernels
// (gemm_tiled.go): four independent accumulator chains sharing each x
// load. Without that, a sparse step loses to the dense GEMM on ILP alone
// and the density win never reaches the clock. Unrolling is bit-safe
// here: each neuron keeps its own k-ascending accumulator (FC1), and each
// output element still receives its contributions in h-ascending order
// (FC2) — the same float sequences as the training kernels.

// DecodeFC1Gather computes hidden[c] = relu(x · W1[:, c] + b1[c]) for the
// active neuron blocks of one token row, gathering each active neuron's
// contiguous column-major input weights. Inactive entries of hidden are
// left untouched (callers keep them zero — unlisted neurons contribute
// nothing, bias included, matching the predictor contract). The op order
// per neuron — products accumulated first, bias added after, then the
// clamp — is exactly FC1Sparse + the bias pass + ReLU, so the gathered
// row is bit-identical to the training sparse path on the same blocks.
func DecodeFC1Gather(hidden, x []float32, w *ColMajor, b1 []float32, blocks []int, blk int) {
	H := w.Out
	for _, nb := range blocks {
		lo, hi := nb*blk, (nb+1)*blk
		if hi > H {
			hi = H
		}
		c := lo
		for ; c+4 <= hi; c += 4 {
			col0 := w.Col(c)
			col1 := w.Col(c + 1)
			col2 := w.Col(c + 2)
			col3 := w.Col(c + 3)
			var s0, s1, s2, s3 float32
			for kk, xv := range x {
				s0 += xv * col0[kk]
				s1 += xv * col1[kk]
				s2 += xv * col2[kk]
				s3 += xv * col3[kk]
			}
			hidden[c] = relu(s0 + b1[c])
			hidden[c+1] = relu(s1 + b1[c+1])
			hidden[c+2] = relu(s2 + b1[c+2])
			hidden[c+3] = relu(s3 + b1[c+3])
		}
		for ; c < hi; c++ {
			col := w.Col(c)
			var s float32
			for kk, xv := range x {
				s += xv * col[kk]
			}
			hidden[c] = relu(s + b1[c])
		}
	}
}

func relu(s float32) float32 {
	if s < 0 {
		return 0
	}
	return s
}

// DecodeFC2Scatter computes out += hidden[h] · W2[h, :] over the active
// neuron blocks of one token row, scattering each active neuron's
// contiguous row-major output weights. Post-ReLU zeros are skipped exactly
// as FC2Sparse skips them; in the unrolled quad each out element gathers
// its four contributions in h-ascending order, preserving the training
// kernel's addition sequence bit for bit.
func DecodeFC2Scatter(out, hidden []float32, w *RowMajor, blocks []int, blk int) {
	H := w.In
	for _, nb := range blocks {
		lo, hi := nb*blk, (nb+1)*blk
		if hi > H {
			hi = H
		}
		h := lo
		for ; h+4 <= hi; h += 4 {
			h0, h1, h2, h3 := hidden[h], hidden[h+1], hidden[h+2], hidden[h+3]
			if h0 == 0 && h1 == 0 && h2 == 0 && h3 == 0 {
				continue
			}
			r0 := w.Row(h)
			r1 := w.Row(h + 1)
			r2 := w.Row(h + 2)
			r3 := w.Row(h + 3)
			for c := range out {
				s := out[c]
				if h0 != 0 {
					s += h0 * r0[c]
				}
				if h1 != 0 {
					s += h1 * r1[c]
				}
				if h2 != 0 {
					s += h2 * r2[c]
				}
				if h3 != 0 {
					s += h3 * r3[c]
				}
				out[c] = s
			}
		}
		for ; h < hi; h++ {
			hv := hidden[h]
			if hv == 0 {
				continue
			}
			row := w.Row(h)
			for c, wv := range row {
				out[c] += hv * wv
			}
		}
	}
}
