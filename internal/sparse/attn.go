package sparse

import (
	"math"

	"longexposure/internal/tensor"
)

// This file contains the per-head 2-D block-sparse attention kernels.
// Shapes: q, k, v and their gradients are [s, hd] row-major with
// s = layout.NB() * blk; scores/probabilities are BlockSparse over the
// layout. All kernels are serial. They are the primitives of the combined
// multi-head operator in combined.go — the one attention operator training
// runs, dense attention included (dense is the full causal layout, see
// DenseBlk), which issues the same per-block products over a balanced
// schedule and runs the row-wise softmax passes through HeadView — and the
// reference its tests compare against at bit equality.

// SDD computes dst(block br,bc) += a[rows of br] · b[rows of bc]ᵀ, the
// sampled-dense-dense product that produces attention scores (Q·Kᵀ) and,
// in backward, probability gradients (dOut·Vᵀ). Only active blocks are
// computed; k is the inner (head) dimension. Each block is one a·bᵀ
// product over contiguous row groups, delegated to the shared
// tensor.GemmTBRange core so the sparse path rides the tiled dense kernels.
func SDD(dst *BlockSparse, a, b []float32, k int) {
	blk := dst.Blk
	for br := 0; br < dst.L.NB(); br++ {
		aRows := a[br*blk*k : (br*blk+blk)*k]
		ptr := dst.L.RowPtr(br)
		for i, bc32 := range dst.L.RowBlocks(br) {
			bc, id := int(bc32), ptr+int32(i)
			tensor.GemmTBRange(dst.Block(id), aRows, b[bc*blk*k:(bc*blk+blk)*k], k, blk, blk, 0, blk)
		}
	}
}

// DSD computes dst += sp · b for sparse sp and dense b [s, n] — the
// probabilities·V product and, in backward, dScores·K. dst is [s, n].
// Each active block is one blkData·bRows product on contiguous rows,
// delegated to the shared tensor.GemmRange core.
func DSD(dst []float32, sp *BlockSparse, b []float32, n int) {
	blk := sp.Blk
	for br := 0; br < sp.L.NB(); br++ {
		out := dst[br*blk*n : (br*blk+blk)*n]
		ptr := sp.L.RowPtr(br)
		for i, bc32 := range sp.L.RowBlocks(br) {
			bc, id := int(bc32), ptr+int32(i)
			tensor.GemmRange(out, sp.Block(id), b[bc*blk*n:(bc*blk+blk)*n], blk, n, blk, n, 0, blk)
		}
	}
}

// DSDT computes dst += spᵀ · b — probabilityᵀ·dOut (for dV) and
// dScoresᵀ·Q (for dK). It traverses column-wise via the layout's inverse
// index (ColBlocks, with ColBlockIDs' block ids) so each destination
// block-row is written by exactly one iteration, keeping the kernel
// race-free if callers shard over block-columns. Each active block is one
// blkDataᵀ·bRows product, delegated to the shared tensor.GemmTARange core.
func DSDT(dst []float32, sp *BlockSparse, b []float32, n int) {
	blk := sp.Blk
	for bc := 0; bc < sp.L.NB(); bc++ {
		out := dst[bc*blk*n : (bc*blk+blk)*n]
		ids := sp.L.ColBlockIDs(bc)
		for i, br32 := range sp.L.ColBlocks(bc) {
			br, id := int(br32), ids[i]
			tensor.GemmTARange(out, sp.Block(id), b[br*blk*n:(br*blk+blk)*n], blk, blk, n, 0, blk)
		}
	}
}

// CausalSoftmax scales the sparse scores by scale, applies causal masking
// inside diagonal blocks, and replaces each row with its softmax over the
// row's active entries. Rows are independent across the whole sparse matrix.
func CausalSoftmax(sp *BlockSparse, scale float32) {
	blk := sp.Blk
	for br := 0; br < sp.L.NB(); br++ {
		row, ptr := sp.L.RowBlocks(br), sp.L.RowPtr(br)
		for i := 0; i < blk; i++ {
			r := br*blk + i // absolute row
			// Pass 1: max over active, causal entries.
			maxV := float32(math.Inf(-1))
			for t, bc32 := range row {
				bc, id := int(bc32), ptr+int32(t)
				blkRow := sp.Block(id)[i*blk : (i+1)*blk]
				lim := causalLimit(r, bc, blk)
				for j := 0; j < lim; j++ {
					v := blkRow[j] * scale
					if v > maxV {
						maxV = v
					}
				}
			}
			// Pass 2: exponentiate and sum.
			var sum float64
			for t, bc32 := range row {
				bc, id := int(bc32), ptr+int32(t)
				blkRow := sp.Block(id)[i*blk : (i+1)*blk]
				lim := causalLimit(r, bc, blk)
				for j := 0; j < blk; j++ {
					if j >= lim {
						blkRow[j] = 0
						continue
					}
					e := float32(math.Exp(float64(blkRow[j]*scale - maxV)))
					blkRow[j] = e
					sum += float64(e)
				}
			}
			if sum == 0 {
				continue
			}
			inv := float32(1 / sum)
			// Pass 3: normalize.
			for t := range row {
				blkRow := sp.Block(ptr + int32(t))[i*blk : (i+1)*blk]
				for j := range blkRow {
					blkRow[j] *= inv
				}
			}
		}
	}
}

// causalLimit returns how many columns of block-column bc are visible to
// absolute row r: blk for strictly-lower blocks, a partial count on the
// diagonal block.
func causalLimit(r, bc, blk int) int {
	lim := r - bc*blk + 1
	if lim > blk {
		lim = blk
	}
	if lim < 0 {
		lim = 0
	}
	return lim
}

// SoftmaxBackward converts dProb (gradient w.r.t. probabilities, sparse, in
// place) into dScore using the stored probabilities p: for each row,
// dScore = p ⊙ (dProb − Σ p·dProb), then multiplies by scale to account for
// the score scaling done in CausalSoftmax. p and dProb share a layout.
func SoftmaxBackward(dProb, p *BlockSparse, scale float32) {
	blk := p.Blk
	for br := 0; br < p.L.NB(); br++ {
		lo, hi := p.L.RowPtr(br), p.L.RowPtr(br+1)
		for i := 0; i < blk; i++ {
			// dot = Σ_j p_j · dProb_j over the row's active entries.
			var dot float64
			for id := lo; id < hi; id++ {
				pr := p.Block(id)[i*blk : (i+1)*blk]
				dr := dProb.Block(id)[i*blk : (i+1)*blk]
				for j := range pr {
					dot += float64(pr[j]) * float64(dr[j])
				}
			}
			for id := lo; id < hi; id++ {
				pr := p.Block(id)[i*blk : (i+1)*blk]
				dr := dProb.Block(id)[i*blk : (i+1)*blk]
				for j := range pr {
					dr[j] = scale * pr[j] * (dr[j] - float32(dot))
				}
			}
		}
	}
}
