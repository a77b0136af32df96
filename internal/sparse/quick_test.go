package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"longexposure/internal/tensor"
)

// randomLayoutFromSeed builds a deterministic pseudo-random causal layout.
func randomLayoutFromSeed(seed uint32, nb int) *Layout {
	return NewLayout(nb, func(br, bc int) bool {
		if bc > br {
			return false
		}
		if bc == br {
			return true
		}
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(br*131+bc)
		h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9
		return h%5 < 2
	})
}

// Property: ToDense ∘ FromDense is the identity on active blocks for any
// layout, and inactive blocks stay zero in ToDense.
func TestQuickBlockSparseRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		nb, blk := 5, 3
		l := randomLayoutFromSeed(seed, nb)
		m := NewBlockSparse(l, blk)
		r := tensor.NewRNG(uint64(seed) + 1)
		for i := range m.Data {
			m.Data[i] = float32(r.Norm())
		}
		d := m.ToDense()
		// Inactive blocks must be zero.
		for br := 0; br < nb; br++ {
			for bc := 0; bc < nb; bc++ {
				if l.Active(br, bc) {
					continue
				}
				for i := 0; i < blk; i++ {
					for j := 0; j < blk; j++ {
						if d.At(br*blk+i, bc*blk+j) != 0 {
							return false
						}
					}
				}
			}
		}
		m2 := NewBlockSparse(l, blk)
		m2.FromDense(d)
		for i := range m.Data {
			if m.Data[i] != m2.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SDD is additive in its inputs — SDD(a+a', b) = SDD(a, b) +
// SDD(a', b) blockwise (bilinearity of the kernel).
func TestQuickSDDLinearity(t *testing.T) {
	f := func(seed uint32) bool {
		nb, blk, hd := 4, 2, 3
		s := nb * blk
		l := randomLayoutFromSeed(seed, nb)
		r := tensor.NewRNG(uint64(seed)*7 + 3)
		mk := func() []float32 {
			x := make([]float32, s*hd)
			for i := range x {
				x[i] = float32(r.Norm())
			}
			return x
		}
		a1, a2, b := mk(), mk(), mk()

		sum := make([]float32, s*hd)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		mSum := NewBlockSparse(l, blk)
		SDD(mSum, sum, b, hd)

		m1 := NewBlockSparse(l, blk)
		m2 := NewBlockSparse(l, blk)
		SDD(m1, a1, b, hd)
		SDD(m2, a2, b, hd)
		for i := range mSum.Data {
			if math.Abs(float64(mSum.Data[i]-(m1.Data[i]+m2.Data[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: DSD(sp, b) equals the dense product of sp.ToDense() with b for
// any random layout and contents.
func TestQuickDSDMatchesDense(t *testing.T) {
	f := func(seed uint32) bool {
		nb, blk, n := 4, 2, 3
		s := nb * blk
		l := randomLayoutFromSeed(seed, nb)
		r := tensor.NewRNG(uint64(seed)*13 + 5)
		sp := NewBlockSparse(l, blk)
		for i := range sp.Data {
			sp.Data[i] = float32(r.Norm())
		}
		b := make([]float32, s*n)
		for i := range b {
			b[i] = float32(r.Norm())
		}
		got := make([]float32, s*n)
		DSD(got, sp, b, n)
		want := make([]float32, s*n)
		tensor.GemmRange(want, sp.ToDense().Data, b, s, n, s, n, 0, s)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Combine's total equals the sum of per-head NNZ, its density is
// the mean layout density, and every task references an active block.
func TestQuickCombineConsistency(t *testing.T) {
	f := func(s1, s2, s3 uint32) bool {
		nb := 6
		heads := []*Layout{
			randomLayoutFromSeed(s1, nb),
			randomLayoutFromSeed(s2, nb),
			randomLayoutFromSeed(s3, nb),
		}
		hl := Combine(heads)
		want := 0
		for _, h := range heads {
			want += h.NNZ()
		}
		if hl.TotalBlocks() != want || len(hl.Tasks) != want {
			return false
		}
		for _, task := range hl.Tasks {
			if !heads[task.Head].Active(task.BR, task.BC) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CausalSoftmax output rows are valid distributions for any
// layout covering the diagonal.
func TestQuickCausalSoftmaxDistribution(t *testing.T) {
	f := func(seed uint32) bool {
		nb, blk, hd := 4, 3, 4
		s := nb * blk
		l := randomLayoutFromSeed(seed, nb)
		r := tensor.NewRNG(uint64(seed) + 11)
		q := make([]float32, s*hd)
		k := make([]float32, s*hd)
		for i := range q {
			q[i] = float32(r.Norm())
			k[i] = float32(r.Norm())
		}
		sp := NewBlockSparse(l, blk)
		SDD(sp, q, k, hd)
		CausalSoftmax(sp, 0.5)
		d := sp.ToDense()
		for i := 0; i < s; i++ {
			var sum float64
			for j := 0; j <= i; j++ {
				v := float64(d.At(i, j))
				if v < 0 || v > 1.000001 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
