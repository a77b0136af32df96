package sparse

import "fmt"

// Kind enumerates the atomic sparse-attention pattern families the offline
// pool is built from (§VI-A). Existing sparse attention masks — Longformer,
// Big Bird, A-shape, strided — are combinations of these atoms, which is
// what makes a small pre-computed pool sufficient for the dynamic patterns
// the predictor emits at runtime.
type Kind uint8

const (
	// KindDense activates every causal block (no sparsity).
	KindDense Kind = iota
	// KindLocal activates a sliding window of Window block-diagonals.
	KindLocal
	// KindGlobal activates the first Global block-columns (sink tokens) and,
	// symmetrically, the first Global block-rows within the causal triangle.
	KindGlobal
	// KindLocalGlobal is Local ∪ Global — the Longformer / A-shape family.
	KindLocalGlobal
	// KindStrided activates every Stride-th block-column per row plus the
	// diagonal (the Sparse-Transformer family).
	KindStrided
	// KindRandom activates the diagonal plus RandomPerRow random causal
	// blocks per row, seeded — the Big Bird random component.
	KindRandom
	// KindBigBird is Local ∪ Global ∪ Random.
	KindBigBird
)

// String names the pattern kind.
func (k Kind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindLocal:
		return "local"
	case KindGlobal:
		return "global"
	case KindLocalGlobal:
		return "local+global"
	case KindStrided:
		return "strided"
	case KindRandom:
		return "random"
	case KindBigBird:
		return "bigbird"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Pattern is a parameterized atomic sparse-attention pattern. All patterns
// are causal: no block above the diagonal is ever active, and the diagonal
// itself is always active (a token must attend to itself).
type Pattern struct {
	Kind         Kind
	Window       int    // KindLocal/-Global/BigBird: width in block-diagonals (≥1)
	Global       int    // KindGlobal/-LocalGlobal/BigBird: number of sink block-columns
	Stride       int    // KindStrided: column period (≥2)
	RandomPerRow int    // KindRandom/BigBird: random blocks per row
	Seed         uint64 // KindRandom/BigBird: deterministic seed
}

// String renders a compact key such as "local(w=2)".
func (p Pattern) String() string {
	switch p.Kind {
	case KindDense:
		return "dense"
	case KindLocal:
		return fmt.Sprintf("local(w=%d)", p.Window)
	case KindGlobal:
		return fmt.Sprintf("global(g=%d)", p.Global)
	case KindLocalGlobal:
		return fmt.Sprintf("local+global(w=%d,g=%d)", p.Window, p.Global)
	case KindStrided:
		return fmt.Sprintf("strided(s=%d)", p.Stride)
	case KindRandom:
		return fmt.Sprintf("random(r=%d,seed=%d)", p.RandomPerRow, p.Seed)
	case KindBigBird:
		return fmt.Sprintf("bigbird(w=%d,g=%d,r=%d,seed=%d)", p.Window, p.Global, p.RandomPerRow, p.Seed)
	default:
		return p.Kind.String()
	}
}

// activeAt reports whether block (br, bc) is active under p on an nb grid.
// Only causal coordinates (bc ≤ br) are ever queried.
func (p Pattern) activeAt(br, bc, nb int) bool {
	if bc > br {
		return false
	}
	if bc == br {
		return true // diagonal always active
	}
	switch p.Kind {
	case KindDense:
		return true
	case KindLocal:
		return br-bc < max(1, p.Window)
	case KindGlobal:
		return bc < p.Global || br < p.Global
	case KindLocalGlobal:
		return br-bc < max(1, p.Window) || bc < p.Global || br < p.Global
	case KindStrided:
		s := max(2, p.Stride)
		return (br-bc)%s == 0
	case KindRandom:
		return randBlockActive(br, bc, nb, p.RandomPerRow, p.Seed)
	case KindBigBird:
		if br-bc < max(1, p.Window) || bc < p.Global || br < p.Global {
			return true
		}
		return randBlockActive(br, bc, nb, p.RandomPerRow, p.Seed)
	default:
		return false
	}
}

// randBlockActive deterministically selects r pseudo-random causal columns
// per row using a hash, so the same (row, seed) always picks the same
// columns — required for the layout LUT to be precomputable.
func randBlockActive(br, bc, nb, r int, seed uint64) bool {
	if r <= 0 || br == 0 {
		return false
	}
	for i := 0; i < r; i++ {
		h := seed ^ uint64(br)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
		if int(h%uint64(br)) == bc { // pick among columns [0, br)
			return true
		}
	}
	return false
}

// Build constructs the layout of p on an nb × nb block grid.
func (p Pattern) Build(nb int) *Layout {
	return NewLayout(nb, func(br, bc int) bool { return p.activeAt(br, bc, nb) })
}

// DenseBlk returns the block size dense attention over s tokens runs the
// full causal layout ({Kind: KindDense}) at: 32-token tiles when s is a
// multiple of 32, so blocks above the diagonal are never computed, and
// otherwise one s-sized block — the whole causal score matrix at once.
func DenseBlk(s int) int {
	if s%32 == 0 {
		return 32
	}
	return s
}

// DefaultPool returns the atomic patterns pre-computed offline by the
// operator pool: the parameter grid the exposer matches predicted masks
// against. The pool spans the patterns used by Longformer, Big Bird and the
// strided family at several widths, plus dense as the fallback.
func DefaultPool() []Pattern {
	return []Pattern{
		{Kind: KindLocal, Window: 1},
		{Kind: KindLocal, Window: 2},
		{Kind: KindLocal, Window: 4},
		{Kind: KindLocalGlobal, Window: 1, Global: 1},
		{Kind: KindLocalGlobal, Window: 2, Global: 1},
		{Kind: KindLocalGlobal, Window: 2, Global: 2},
		{Kind: KindLocalGlobal, Window: 4, Global: 2},
		{Kind: KindStrided, Stride: 2},
		{Kind: KindStrided, Stride: 4},
		{Kind: KindBigBird, Window: 2, Global: 1, RandomPerRow: 2, Seed: 17},
		{Kind: KindDense},
	}
}
