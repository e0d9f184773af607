// Package fixedpoint re-exports the packed Q1.15 complex sample the
// kernels compute with: one 32-bit word per complex sample, quantized
// from complex128 with rounding and saturation.
package fixedpoint

import "repro/internal/fixed"

// C15 is a packed complex Q1.15 sample (re in bits 15..0, im in bits
// 31..16).
type C15 = fixed.C15

// Pack builds a sample from raw Q1.15 components.
func Pack(re, im int16) C15 { return fixed.Pack(re, im) }

// FromComplex quantizes a complex128 into a packed sample.
func FromComplex(z complex128) C15 { return fixed.FromComplex(z) }
