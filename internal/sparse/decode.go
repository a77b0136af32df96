package sparse

// Decode-path neuron kernels: FC1Sparse/FC2Sparse on one token row, with
// FC1's bias and ReLU applied over the active neurons. A one-row call runs
// on the calling goroutine, and at that size the shared GEMM cores read the
// active weights where they lie (no per-call panel pack), so these allocate
// nothing and keep the cached decode loop at 0 allocs/op.

// DecodeFC1Gather computes hidden[c] = relu(x · W1[:, c] + b1[c]) for the
// active neuron blocks of one token row. Inactive entries of hidden are
// left untouched (callers keep them zero — unlisted neurons contribute
// nothing, bias included, matching the predictor contract). The op order
// per neuron — products accumulated first, bias added after, then the
// clamp — is exactly FC1Sparse + the bias pass + ReLU, so the gathered
// row is bit-identical to the training sparse path on the same blocks.
func DecodeFC1Gather(hidden, x []float32, w *ColMajor, b1 []float32, blocks []int, blk int) {
	for _, nb := range blocks {
		clear(hidden[nb*blk : min((nb+1)*blk, w.Out)])
	}
	FC1Sparse(hidden, x, 1, w, blocks, blk)
	for _, nb := range blocks {
		for c := nb * blk; c < min((nb+1)*blk, w.Out); c++ {
			s := hidden[c] + b1[c]
			if s < 0 {
				s = 0
			}
			hidden[c] = s
		}
	}
}

// DecodeFC2Scatter computes out += hidden[h] · W2[h, :] over the active
// neuron blocks of one token row: FC2Sparse at tokens = 1, post-ReLU zeros
// skipped.
func DecodeFC2Scatter(out, hidden []float32, w *RowMajor, blocks []int, blk int) {
	FC2Sparse(out, hidden, 1, w, blocks, blk)
}
