// Package half implements IEEE-754 binary16 (half precision) conversion.
//
// The paper stores model parameters in fp16 and computes in fp32 (mixed
// precision, §VII-A). On CPU we compute in float32, but fp16 storage still
// halves the bytes a kernel must stream: the f16 weight format of a
// compressed serving base holds these bit patterns. This package provides
// the faithful round-trip so parameter stores can hold real fp16 bit
// patterns rather than pretending.
package half

import "math"

// Float16 is an IEEE-754 binary16 value stored in its raw bit pattern.
type Float16 uint16

// Bits exposes the raw bit pattern.
func (f Float16) Bits() uint16 { return uint16(f) }

// FromFloat32 converts a float32 to the nearest Float16 using
// round-to-nearest-even, with overflow to ±Inf and graceful handling of
// subnormals, following the IEEE-754 conversion rules.
func FromFloat32(x float32) Float16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	frac := b & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if frac != 0 {
			// NaN: keep it a NaN, preserve the top fraction bit.
			return Float16(sign | 0x7e00 | uint16(frac>>13))
		}
		return Float16(sign | 0x7c00)
	case exp == 0 && frac == 0: // signed zero
		return Float16(sign)
	}

	// Re-bias the exponent from float32 (127) to float16 (15).
	e := exp - 127 + 15
	switch {
	case e >= 0x1f:
		// Overflow to infinity.
		return Float16(sign | 0x7c00)
	case e <= 0:
		// Subnormal or underflow to zero. The implicit leading 1 becomes
		// explicit and the fraction shifts right by (1 - e) extra places.
		if e < -10 {
			return Float16(sign)
		}
		m := frac | 0x800000 // restore implicit bit
		shift := uint32(14 - e)
		// Round to nearest, ties to even: add just under half, plus the
		// kept lsb so exact ties carry only when the kept bit is odd —
		// the same scheme the normal path uses on its 13 dropped bits.
		rounded := m + (uint32(1)<<(shift-1) - 1) + ((m >> shift) & 1)
		return Float16(sign | uint16(rounded>>shift))
	}

	// Normal case: round the 23-bit fraction to 10 bits, nearest even.
	m := frac
	rounded := m + 0xfff + ((m >> 13) & 1)
	if rounded&0x800000 != 0 {
		// Fraction rounded up past 1.0: bump the exponent.
		rounded = 0
		e++
		if e >= 0x1f {
			return Float16(sign | 0x7c00)
		}
		return Float16(sign | uint16(e)<<10)
	}
	return Float16(sign | uint16(e)<<10 | uint16(rounded>>13))
}

// ToFloat32 converts a Float16 back to float32 exactly (every binary16 value
// is representable in binary32).
//
// The widening is branch-free except for the Inf/NaN class: sign and
// magnitude bits are placed at their binary32 positions, which leaves the
// exponent short by exactly 112 (the bias difference 127-15 minus the 13-bit
// fraction shift already applied), and a single multiply by 2^112 rescales.
// The multiply is exact for normals (pure exponent shift) and for subnormals
// (m·2^-136 · 2^112 = m·2^-24, which binary32 normalizes losslessly), so no
// normalization loop is needed; the sign rides through the multiply, so the
// whole conversion needs one integer→float register move rather than a
// round trip. This is the kernel-facing conversion the packed-GEMM pack
// routines run per weight element, which is why it must be cheap;
// TestToFloat32MatchesReference pins it against the obvious
// shift-and-normalize decoder over all 65536 patterns.
func (f Float16) ToFloat32() float32 {
	if f&0x7c00 == 0x7c00 { // Inf / NaN: payload moves to the top fraction bits
		return math.Float32frombits(uint32(f&0x8000)<<16 | 0x7f800000 | uint32(f&0x3ff)<<13)
	}
	const twoPow112 = 0x1p112
	return math.Float32frombits(uint32(f&0x8000)<<16|uint32(f&0x7fff)<<13) * twoPow112
}

// IsNaN reports whether f encodes a NaN.
func (f Float16) IsNaN() bool {
	return f&0x7c00 == 0x7c00 && f&0x3ff != 0
}

// IsInf reports whether f encodes an infinity.
func (f Float16) IsInf() bool {
	return f&0x7fff == 0x7c00
}

// EncodeSlice converts xs to fp16 bit patterns, appending into dst
// (allocated if nil or too short) and returning it.
func EncodeSlice(dst []Float16, xs []float32) []Float16 {
	if cap(dst) < len(xs) {
		dst = make([]Float16, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = FromFloat32(x)
	}
	return dst
}

// DecodeSlice converts fp16 values back to float32, appending into dst
// (allocated if nil or too short) and returning it.
func DecodeSlice(dst []float32, xs []Float16) []float32 {
	if cap(dst) < len(xs) {
		dst = make([]float32, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = x.ToFloat32()
	}
	return dst
}

// RoundTrip quantizes x through fp16 and back, the exact value a kernel
// reading fp16 parameters would see.
func RoundTrip(x float32) float32 { return FromFloat32(x).ToFloat32() }

// Bytes reports the storage size in bytes of n fp16 values.
func Bytes(n int) int64 { return int64(n) * 2 }
