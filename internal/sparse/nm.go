package sparse

import "fmt"

// N:M block-structured weight sparsity (SLoPe, arXiv:2405.16325): within
// every aligned group of M consecutive weights, at most N survive, stored as
// their values plus 1-byte in-group offsets. Unlike the neuron-block kernels
// in this package — which gate whole rows per input — N:M is a property of
// the frozen weights themselves, fixed at pack time, so the kernel's work
// drops to N/M of the dense multiply-adds on every call with no predictor in
// the loop. 2:4 is the hardware-canonical shape; the kernels here are its
// CPU analog: the pruned positions are skipped at pack time and never cost a
// load, a compare, or a multiply at run time.
//
// Storage is groups-of-N with fixed stride (Rows × Cols/M × N), so a zero
// group still stores N (zero-valued) entries: the fixed layout is what keeps
// the gather loop branch-free, exactly the trade the hardware format makes.
// At 2:4 the footprint is N·5 bytes per M·4 dense bytes — 0.625x — and the
// flops are halved.

// NMWeights is a row-major [Rows][Cols] matrix in N:M form. Val and Idx are
// parallel arrays of length Rows·(Cols/M)·N: entry (r, g, s) is
// Val[(r·groups+g)·N+s] at column g·M + Idx[same position]. Within a group,
// kept entries are ordered by ascending column offset.
type NMWeights struct {
	N, M       int
	Rows, Cols int
	Val        []float32
	Idx        []uint8
}

// Groups returns the number of M-wide groups per row.
func (p *NMWeights) Groups() int { return p.Cols / p.M }

// Bytes reports the resident storage footprint (values + offsets).
func (p *NMWeights) Bytes() int64 { return 4*int64(len(p.Val)) + int64(len(p.Idx)) }

// PackNM prunes a dense row-major [rows][cols] matrix to N:M, keeping the
// top-n entries of every aligned m-wide group by absolute magnitude (ties
// keep the lower column). cols must be a multiple of m, and m at most 256 so
// offsets fit a byte.
func PackNM(w []float32, rows, cols, n, m int) *NMWeights {
	switch {
	case len(w) != rows*cols:
		panic(fmt.Sprintf("sparse: PackNM data %d, want %d×%d", len(w), rows, cols))
	case m <= 0 || n <= 0 || n > m:
		panic(fmt.Sprintf("sparse: PackNM shape %d:%d", n, m))
	case cols%m != 0:
		panic(fmt.Sprintf("sparse: PackNM cols %d not a multiple of %d", cols, m))
	case m > 256:
		panic(fmt.Sprintf("sparse: PackNM group width %d exceeds uint8 offsets", m))
	}
	groups := cols / m
	p := &NMWeights{
		N: n, M: m, Rows: rows, Cols: cols,
		Val: make([]float32, rows*groups*n),
		Idx: make([]uint8, rows*groups*n),
	}
	keep := make([]int, 0, n)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		for g := 0; g < groups; g++ {
			grp := row[g*m : (g+1)*m]
			// Select the top-n offsets by |value|; n and m are tiny (2:4),
			// so a selection scan beats sorting.
			keep = keep[:0]
			for s := 0; s < n; s++ {
				best, bestAbs := -1, float32(-1)
				for c, v := range grp {
					taken := false
					for _, kc := range keep {
						if kc == c {
							taken = true
							break
						}
					}
					if taken {
						continue
					}
					av := v
					if av < 0 {
						av = -av
					}
					if av > bestAbs {
						best, bestAbs = c, av
					}
				}
				keep = append(keep, best)
			}
			// Ascending column order within the group.
			for i := 1; i < len(keep); i++ {
				for j := i; j > 0 && keep[j] < keep[j-1]; j-- {
					keep[j], keep[j-1] = keep[j-1], keep[j]
				}
			}
			o := (r*groups + g) * n
			for s, c := range keep {
				p.Val[o+s] = grp[c]
				p.Idx[o+s] = uint8(c)
			}
		}
	}
	return p
}

// Dequant widens back to a dense row-major [Rows][Cols] matrix with zeros at
// the pruned positions — the exact matrix every kernel below computes with.
func (p *NMWeights) Dequant() []float32 {
	w := make([]float32, p.Rows*p.Cols)
	groups := p.Groups()
	for r := 0; r < p.Rows; r++ {
		for g := 0; g < groups; g++ {
			o := (r*groups + g) * p.N
			for s := 0; s < p.N; s++ {
				w[r*p.Cols+g*p.M+int(p.Idx[o+s])] = p.Val[o+s]
			}
		}
	}
	return w
}

// MulVecRange accumulates y[r] += dot(row r, x) for rows in [lo, hi) — the
// FC1 gather: rows are output neurons, x is one input row of length Cols.
// The 2:4 fast path unrolls four groups per iteration into eight independent
// accumulator chains to keep the float adds off the latency path. Even so,
// the single-token gather pays a value load, an offset load and an indexed
// load per multiply-add where the dense tiled core pays ~1.25 loads, so at
// one token it does not beat the dense core — halved madds don't cover a 3x
// per-madd load deficit. The N:M win on CPU comes from the token-blocked
// MulTB below, which amortizes the metadata loads (see the BenchmarkKernels
// nm/ rows for both shapes). Accumulation order is the stored
// (ascending-column) order over kept entries only; zero-valued kept entries
// still multiply, keeping the loop branch-free.
func (p *NMWeights) MulVecRange(y, x []float32, lo, hi int) {
	groups := p.Groups()
	if p.N == 2 {
		m := p.M
		for r := lo; r < hi; r++ {
			base := r * groups * 2
			vals := p.Val[base : base+groups*2]
			idxs := p.Idx[base : base+groups*2]
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			g := 0
			for ; g+4 <= groups; g += 4 {
				v := vals[2*g : 2*g+8]
				id := idxs[2*g : 2*g+8]
				j := g * m
				s0 += v[0] * x[j+int(id[0])]
				s1 += v[1] * x[j+int(id[1])]
				s2 += v[2] * x[j+m+int(id[2])]
				s3 += v[3] * x[j+m+int(id[3])]
				s4 += v[4] * x[j+2*m+int(id[4])]
				s5 += v[5] * x[j+2*m+int(id[5])]
				s6 += v[6] * x[j+3*m+int(id[6])]
				s7 += v[7] * x[j+3*m+int(id[7])]
			}
			for ; g < groups; g++ {
				j := g * m
				s0 += vals[2*g] * x[j+int(idxs[2*g])]
				s1 += vals[2*g+1] * x[j+int(idxs[2*g+1])]
			}
			y[r] += ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
		}
		return
	}
	for r := lo; r < hi; r++ {
		base := r * groups * p.N
		var s float32
		for g := 0; g < groups; g++ {
			xg := x[g*p.M:]
			o := base + g*p.N
			for t := 0; t < p.N; t++ {
				s += p.Val[o+t] * xg[p.Idx[o+t]]
			}
		}
		y[r] += s
	}
}

// MulVec is MulVecRange over every row.
func (p *NMWeights) MulVec(y, x []float32) { p.MulVecRange(y, x, 0, p.Rows) }

// TMulVec accumulates out[c] += Σ_r h[r]·w[r,c] — the FC2 scatter: rows are
// input neurons (post-activation hidden units), out has length Cols. Rows
// whose activation is exactly zero are skipped entirely, so the kernel
// composes with ReLU neuron sparsity the same way the dense cores'
// zero-product skip does.
func (p *NMWeights) TMulVec(out, h []float32) {
	groups := p.Groups()
	for r, hv := range h {
		if hv == 0 {
			continue
		}
		o := r * groups * p.N
		for g := 0; g < groups; g++ {
			og := out[g*p.M:]
			for t := 0; t < p.N; t++ {
				og[p.Idx[o+t]] += hv * p.Val[o+t]
			}
			o += p.N
		}
	}
}

// MulTB accumulates y[t,:] += x[t,:]·Wᵀ for every row t of x — the batch
// form of MulVec (y: [tokens, Rows], x: [tokens, Cols]).
//
// Tokens are processed in blocks of four so each value/offset load is
// amortized over four gathers — the same load-sharing the dense tiled core
// gets from its 4-wide output tile, and the CPU analog of how sparse tensor
// cores consume the 2:4 format tile-wise. With the metadata traffic shared,
// the kernel does half the dense multiply-adds at comparable per-madd cost,
// which is where the N:M speedup over the dense core materializes (the
// single-token MulVec gather pays its offset loads per madd and does not
// beat the dense core; see the BenchmarkKernels nm/ rows).
func (p *NMWeights) MulTB(y, x []float32, tokens int) {
	t := 0
	if p.N == 2 && tokens >= 4 {
		// One token-major scratch pane, reused across the blocks: packing is
		// O(tokens·Cols), amortized over Rows·Cols/2 multiply-adds per block.
		xt := make([][4]float32, p.Cols)
		for ; t+4 <= tokens; t += 4 {
			x4 := x[t*p.Cols:]
			for c := 0; c < p.Cols; c++ {
				xt[c] = [4]float32{x4[c], x4[p.Cols+c], x4[2*p.Cols+c], x4[3*p.Cols+c]}
			}
			p.mulTB4(y[t*p.Rows:], xt)
		}
	}
	for ; t < tokens; t++ {
		p.MulVecRange(y[t*p.Rows:(t+1)*p.Rows], x[t*p.Cols:(t+1)*p.Cols], 0, p.Rows)
	}
}

// mulTB4 is the 2:4 four-token block: y[t,:] += xt·Wᵀ where xt is the
// token-major pane xt[4c+t] = x[t,c]. The transpose turns every gather into
// a contiguous four-float quad at a provably in-bounds offset, so the eight
// accumulator chains (4 tokens × N=2) run with one bounds check per quad
// instead of one per load.
func (p *NMWeights) mulTB4(y []float32, xt [][4]float32) {
	groups := p.Groups()
	m := p.M
	for r := 0; r < p.Rows; r++ {
		base := r * groups * 2
		vals := p.Val[base : base+groups*2]
		idxs := p.Idx[base : base+groups*2]
		var a0, a1, b0, b1, c0, c1, d0, d1 float32
		g := 0
		for ; g+2 <= groups; g += 2 {
			v := vals[2*g : 2*g+4]
			id := idxs[2*g : 2*g+4]
			j := g * m
			q0 := &xt[j+int(id[0])]
			q1 := &xt[j+int(id[1])]
			q2 := &xt[j+m+int(id[2])]
			q3 := &xt[j+m+int(id[3])]
			a0 += v[0] * q0[0]
			b0 += v[0] * q0[1]
			c0 += v[0] * q0[2]
			d0 += v[0] * q0[3]
			a1 += v[1] * q1[0]
			b1 += v[1] * q1[1]
			c1 += v[1] * q1[2]
			d1 += v[1] * q1[3]
			a0 += v[2] * q2[0]
			b0 += v[2] * q2[1]
			c0 += v[2] * q2[2]
			d0 += v[2] * q2[3]
			a1 += v[3] * q3[0]
			b1 += v[3] * q3[1]
			c1 += v[3] * q3[2]
			d1 += v[3] * q3[3]
		}
		for ; g < groups; g++ {
			v0, v1 := vals[2*g], vals[2*g+1]
			j := g * m
			q0 := &xt[j+int(idxs[2*g])]
			q1 := &xt[j+int(idxs[2*g+1])]
			a0 += v0 * q0[0]
			b0 += v0 * q0[1]
			c0 += v0 * q0[2]
			d0 += v0 * q0[3]
			a1 += v1 * q1[0]
			b1 += v1 * q1[1]
			c1 += v1 * q1[2]
			d1 += v1 * q1[3]
		}
		y[0*p.Rows+r] += a0 + a1
		y[1*p.Rows+r] += b0 + b1
		y[2*p.Rows+r] += c0 + c1
		y[3*p.Rows+r] += d0 + d1
	}
}

// TMulBatch accumulates out[t,:] += h[t,:]·W for every row t — the batch
// form of TMulVec (out: [tokens, Cols], h: [tokens, Rows]).
func (p *NMWeights) TMulBatch(out, h []float32, tokens int) {
	for t := 0; t < tokens; t++ {
		p.TMulVec(out[t*p.Cols:(t+1)*p.Cols], h[t*p.Rows:(t+1)*p.Rows])
	}
}
