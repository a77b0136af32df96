package sparse

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewLayoutRowColConsistency(t *testing.T) {
	l := NewLayout(4, func(br, bc int) bool { return bc <= br && (br+bc)%2 == 0 })
	// Every (br, bc) in rows must appear in cols and vice versa.
	for br := 0; br < 4; br++ {
		for _, bc := range l.RowBlocks(br) {
			found := false
			for _, r := range l.ColBlocks(int(bc)) {
				if int(r) == br {
					found = true
				}
			}
			if !found {
				t.Fatalf("(%d,%d) in rows but not cols", br, bc)
			}
		}
	}
	n := 0
	for bc := 0; bc < 4; bc++ {
		n += len(l.ColBlocks(bc))
	}
	if n != l.NNZ() {
		t.Fatalf("cols count %d != nnz %d", n, l.NNZ())
	}
}

func TestBlockIDDenseEnumeration(t *testing.T) {
	l := NewLayout(5, func(br, bc int) bool { return bc <= br })
	want := int32(0)
	for br := 0; br < 5; br++ {
		if l.RowPtr(br) != want {
			t.Fatalf("RowPtr(%d) = %d, want %d", br, l.RowPtr(br), want)
		}
		for _, bc := range l.RowBlocks(br) {
			id, ok := l.BlockID(br, int(bc))
			if !ok || id != want {
				t.Fatalf("BlockID(%d,%d) = %d,%v want %d", br, bc, id, ok, want)
			}
			want++
		}
	}
	if int(want) != l.NNZ() {
		t.Fatalf("enumerated %d blocks, nnz %d", want, l.NNZ())
	}
}

// layoutFromBlocks builds a layout from an explicit list of active block
// coordinates.
func layoutFromBlocks(nb int, blocks [][2]int) *Layout {
	return NewLayout(nb, func(br, bc int) bool { return slices.Contains(blocks, [2]int{br, bc}) })
}

func TestBlockIDInactive(t *testing.T) {
	l := layoutFromBlocks(3, [][2]int{{0, 0}, {2, 1}})
	if _, ok := l.BlockID(1, 0); ok {
		t.Fatal("inactive block reported active")
	}
	if !l.Active(2, 1) {
		t.Fatal("active block reported inactive")
	}
}

func TestDensitySparsity(t *testing.T) {
	l := layoutFromBlocks(4, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if l.Density() != 0.25 {
		t.Fatalf("Density = %v", l.Density())
	}
	if l.Sparsity() != 0.75 {
		t.Fatalf("Sparsity = %v", l.Sparsity())
	}
}

func TestUnionIntersect(t *testing.T) {
	a := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 0}})
	b := layoutFromBlocks(3, [][2]int{{0, 0}, {2, 1}})
	u := a.Union(b)
	if u.NNZ() != 3 || !u.Active(0, 0) || !u.Active(1, 0) || !u.Active(2, 1) {
		t.Fatalf("Union wrong: nnz=%d", u.NNZ())
	}
	x := a.Intersect(b)
	if x.NNZ() != 1 || !x.Active(0, 0) {
		t.Fatalf("Intersect wrong: nnz=%d", x.NNZ())
	}
	if a.Overlap(b) != 1 {
		t.Fatalf("Overlap = %d", a.Overlap(b))
	}
}

func TestCausalityChecks(t *testing.T) {
	causal := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 1}, {2, 2}, {2, 0}})
	if !causal.IsCausal() || !causal.CoversDiagonal() {
		t.Fatal("causal layout misclassified")
	}
	acausal := layoutFromBlocks(3, [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 2}})
	if acausal.IsCausal() {
		t.Fatal("acausal layout classified causal")
	}
	noDiag := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 1}, {2, 0}})
	if noDiag.CoversDiagonal() {
		t.Fatal("missing diagonal block not detected")
	}
}

func TestLayoutEqual(t *testing.T) {
	a := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 0}})
	b := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 0}})
	c := layoutFromBlocks(3, [][2]int{{0, 0}, {1, 1}})
	if !a.Equal(b) {
		t.Fatal("equal layouts compare unequal")
	}
	if a.Equal(c) {
		t.Fatal("different layouts compare equal")
	}
}

// Property: for random layouts, Union covers both inputs and Intersect is
// covered by both inputs.
func TestUnionIntersectProperty(t *testing.T) {
	f := func(seedA, seedB uint32) bool {
		nb := 6
		mk := func(seed uint32) *Layout {
			return NewLayout(nb, func(br, bc int) bool {
				if bc > br {
					return false
				}
				h := uint64(seed)*2654435761 + uint64(br*31+bc)
				h = (h ^ (h >> 13)) * 0x9e3779b97f4a7c15
				return h%3 == 0 || br == bc
			})
		}
		a, b := mk(seedA), mk(seedB)
		u, x := a.Union(b), a.Intersect(b)
		for br := 0; br < nb; br++ {
			for bc := 0; bc <= br; bc++ {
				if (a.Active(br, bc) || b.Active(br, bc)) != u.Active(br, bc) {
					return false
				}
				if (a.Active(br, bc) && b.Active(br, bc)) != x.Active(br, bc) {
					return false
				}
			}
		}
		return u.NNZ()+x.NNZ() == a.NNZ()+b.NNZ() // inclusion–exclusion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
