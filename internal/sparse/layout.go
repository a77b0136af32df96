// Package sparse implements the paper's Dynamic-aware Operators (§VI):
// block-sparse attention kernels (SDD / DSD matrix multiplication) driven by
// pre-computed layout lookup tables, and neuron-block MLP kernels with
// layout-aware weight storage.
//
// The two-stage design follows the paper exactly: an *offline* pool of
// common atomic sparse patterns whose layouts (block index lookup tables)
// are pre-computed once, and an *online* combination step that assembles the
// per-head layouts of one multi-head attention invocation by applying data
// offsets — no per-step format conversion.
package sparse

import (
	"fmt"
	"sort"
)

// Layout is the pre-computed lookup table for one block-sparse pattern on an
// nb × nb block grid: which blocks are active, in row-major order, plus the
// inverse (column-wise) index needed by transposed operations.
//
// A Layout is immutable after construction; pools share them across steps.
type Layout struct {
	nb     int
	rows   [][]int32 // rows[br] = sorted active block-columns
	cols   [][]int32 // cols[bc] = sorted active block-rows
	colIDs [][]int32 // colIDs[bc][i] = block id of block (cols[bc][i], bc)
	rowPtr []int32   // prefix sum of len(rows[br]); block id space
	nnz    int
}

// NewLayout builds a layout from an active-block predicate over the nb × nb
// grid. This is the offline construction path; it is deliberately allowed to
// be slow relative to the online kernels.
func NewLayout(nb int, active func(br, bc int) bool) *Layout {
	l := &Layout{
		nb:     nb,
		rows:   make([][]int32, nb),
		cols:   make([][]int32, nb),
		colIDs: make([][]int32, nb),
		rowPtr: make([]int32, nb+1),
	}
	for br := 0; br < nb; br++ {
		for bc := 0; bc < nb; bc++ {
			if active(br, bc) {
				l.cols[bc] = append(l.cols[bc], int32(br))
				l.colIDs[bc] = append(l.colIDs[bc], l.rowPtr[br]+int32(len(l.rows[br])))
				l.rows[br] = append(l.rows[br], int32(bc))
			}
		}
		l.rowPtr[br+1] = l.rowPtr[br] + int32(len(l.rows[br]))
	}
	l.nnz = int(l.rowPtr[nb])
	return l
}

// NB returns the number of blocks per side.
func (l *Layout) NB() int { return l.nb }

// NNZ returns the number of active blocks.
func (l *Layout) NNZ() int { return l.nnz }

// Density returns nnz / nb².
func (l *Layout) Density() float64 {
	if l.nb == 0 {
		return 0
	}
	return float64(l.nnz) / float64(l.nb*l.nb)
}

// Sparsity returns 1 − Density.
func (l *Layout) Sparsity() float64 { return 1 - l.Density() }

// RowBlocks returns the sorted active block-columns of block-row br.
// The slice must not be mutated.
func (l *Layout) RowBlocks(br int) []int32 { return l.rows[br] }

// ColBlocks returns the sorted active block-rows of block-column bc.
// The slice must not be mutated.
func (l *Layout) ColBlocks(bc int) []int32 { return l.cols[bc] }

// ColBlockIDs returns the block ids of block-column bc's active blocks, in
// ColBlocks order: ColBlockIDs(bc)[i] = BlockID(ColBlocks(bc)[i], bc). The
// slice must not be mutated.
func (l *Layout) ColBlockIDs(bc int) []int32 { return l.colIDs[bc] }

// RowPtr returns the block-id offset of block-row br: blocks of row br have
// ids [RowPtr(br), RowPtr(br+1)).
func (l *Layout) RowPtr(br int) int32 { return l.rowPtr[br] }

// BlockID returns the dense storage index of block (br, bc) and whether the
// block is active. It is a binary search; the kernels walk RowPtr and
// ColBlockIDs instead.
func (l *Layout) BlockID(br, bc int) (int32, bool) {
	row := l.rows[br]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(bc) })
	if i < len(row) && row[i] == int32(bc) {
		return l.rowPtr[br] + int32(i), true
	}
	return 0, false
}

// Active reports whether block (br, bc) is active.
func (l *Layout) Active(br, bc int) bool {
	_, ok := l.BlockID(br, bc)
	return ok
}

// Equal reports whether two layouts mark exactly the same blocks.
func (l *Layout) Equal(o *Layout) bool {
	if l.nb != o.nb || l.nnz != o.nnz {
		return false
	}
	for br := 0; br < l.nb; br++ {
		a, b := l.rows[br], o.rows[br]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// Union returns a layout active wherever either input is active.
func (l *Layout) Union(o *Layout) *Layout {
	if l.nb != o.nb {
		panic(fmt.Sprintf("sparse: Union of %d and %d block grids", l.nb, o.nb))
	}
	return NewLayout(l.nb, func(br, bc int) bool {
		return l.Active(br, bc) || o.Active(br, bc)
	})
}

// Intersect returns a layout active only where both inputs are active.
func (l *Layout) Intersect(o *Layout) *Layout {
	if l.nb != o.nb {
		panic(fmt.Sprintf("sparse: Intersect of %d and %d block grids", l.nb, o.nb))
	}
	return NewLayout(l.nb, func(br, bc int) bool {
		return l.Active(br, bc) && o.Active(br, bc)
	})
}

// Overlap returns |l ∧ o| — the number of blocks active in both layouts.
func (l *Layout) Overlap(o *Layout) int {
	if l.nb != o.nb {
		panic("sparse: Overlap on mismatched grids")
	}
	n := 0
	for br := 0; br < l.nb; br++ {
		for _, bc := range l.rows[br] {
			if o.Active(br, int(bc)) {
				n++
			}
		}
	}
	return n
}

// IsCausal reports whether every active block lies on or below the diagonal,
// the invariant all attention layouts in this repository must satisfy.
func (l *Layout) IsCausal() bool {
	for br := 0; br < l.nb; br++ {
		for _, bc := range l.rows[br] {
			if int(bc) > br {
				return false
			}
		}
	}
	return true
}

// CoversDiagonal reports whether every diagonal block is active. Causal
// attention requires this: token i must at least attend to itself.
func (l *Layout) CoversDiagonal() bool {
	for br := 0; br < l.nb; br++ {
		if !l.Active(br, br) {
			return false
		}
	}
	return true
}
