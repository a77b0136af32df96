package sparse

import (
	"fmt"

	"longexposure/internal/tensor"
)

// BlockSparse is a block-sparse square matrix: only the blocks marked active
// by its Layout are stored, contiguously in block-id order, each block
// row-major blk × blk. It is the storage format of attention scores and
// probabilities under a head-specific mask.
type BlockSparse struct {
	L    *Layout
	Blk  int
	Data []float32
}

// NewBlockSparse allocates zeroed storage for layout l with block size blk.
func NewBlockSparse(l *Layout, blk int) *BlockSparse {
	return &BlockSparse{L: l, Blk: blk, Data: make([]float32, l.NNZ()*blk*blk)}
}

// Block returns the storage of block id as a blk×blk row-major slice.
func (m *BlockSparse) Block(id int32) []float32 {
	bb := m.Blk * m.Blk
	return m.Data[int(id)*bb : (int(id)+1)*bb]
}

// Dim returns the dense dimension nb*blk of the represented square matrix.
func (m *BlockSparse) Dim() int { return m.L.NB() * m.Blk }

// Zero clears all stored blocks.
func (m *BlockSparse) Zero() { clear(m.Data) }

// ToDense materializes the matrix densely (inactive blocks are zero) —
// used by tests and the predictor-visualization experiment, never by the
// training fast path.
func (m *BlockSparse) ToDense() *tensor.Tensor {
	s := m.Dim()
	d := tensor.New(s, s)
	for br := 0; br < m.L.NB(); br++ {
		for _, bc := range m.L.RowBlocks(br) {
			id, _ := m.L.BlockID(br, int(bc))
			blkData := m.Block(id)
			for i := 0; i < m.Blk; i++ {
				copy(d.Data[(br*m.Blk+i)*s+int(bc)*m.Blk:(br*m.Blk+i)*s+(int(bc)+1)*m.Blk],
					blkData[i*m.Blk:(i+1)*m.Blk])
			}
		}
	}
	return d
}

// FromDense gathers the active blocks of a dense s×s matrix into m.
func (m *BlockSparse) FromDense(d *tensor.Tensor) {
	s := m.Dim()
	if d.Dim(0) != s || d.Dim(1) != s {
		panic(fmt.Sprintf("sparse: FromDense shape %v, want [%d %d]", d.Shape(), s, s))
	}
	for br := 0; br < m.L.NB(); br++ {
		for _, bc := range m.L.RowBlocks(br) {
			id, _ := m.L.BlockID(br, int(bc))
			blkData := m.Block(id)
			for i := 0; i < m.Blk; i++ {
				copy(blkData[i*m.Blk:(i+1)*m.Blk],
					d.Data[(br*m.Blk+i)*s+int(bc)*m.Blk:(br*m.Blk+i)*s+(int(bc)+1)*m.Blk])
			}
		}
	}
}
