package cluster

import "math"

// IEEE 754 binary16 ("half") conversion and an error-feedback quantizer for
// compressed gradient buckets. Shipping buckets as fp16 costs 2 wire bytes
// per element against the simulator's 8-byte fp64 wire (a 4x reduction —
// half of a real fp32 wire); the quantization error of each step is
// retained locally and folded into the next step's bucket (error feedback),
// so the error does not accumulate across steps — the residual telescopes
// and the cumulative shipped gradient stays within one quantization step of
// the true sum.

// Float16FromFloat64 converts to binary16 with round-to-nearest-even.
// Values beyond the half range (including infinities) saturate to the
// largest finite half, the right policy for gradient payloads where a single
// Inf would poison the AllReduce sum; NaN is preserved.
func Float16FromFloat64(x float64) uint16 {
	b := math.Float64bits(x)
	sign := uint16((b >> 48) & 0x8000)
	exp := int((b >> 52) & 0x7FF)
	mant := b & 0x000FFFFFFFFFFFFF
	if exp == 0x7FF {
		if mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7BFF // Inf saturates to max finite
	}
	e := exp - 1023
	if e >= 16 {
		return sign | 0x7BFF // overflow saturates
	}
	full := mant | 1<<52
	if e >= -14 {
		// Normal half: shift the 53-bit significand down to 11 bits; the
		// implicit bit lands at 1<<10, so a rounding carry rolls into the
		// exponent field naturally.
		v := uint32(e+14)<<10 + uint32(roundShiftRNE(full, 42))
		if v >= 0x7C00 {
			return sign | 0x7BFF
		}
		return sign | uint16(v)
	}
	if e >= -25 {
		// Subnormal half: value = S * 2^-24 with S = significand >> (28-e);
		// a carry to S = 1024 is exactly the smallest normal half.
		return sign | uint16(roundShiftRNE(full, uint(28-e)))
	}
	return sign // underflow to signed zero
}

// roundShiftRNE shifts m right, rounding the dropped bits to nearest-even.
func roundShiftRNE(m uint64, shift uint) uint64 {
	if shift >= 64 {
		return 0
	}
	q := m >> shift
	rem := m & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && q&1 == 1) {
		q++
	}
	return q
}

// Float16ToFloat64 expands a binary16 value.
func Float16ToFloat64(h uint16) float64 {
	sign := 1.0
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h>>10) & 0x1F
	mant := int(h & 0x3FF)
	switch {
	case exp == 0x1F:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case exp == 0:
		return sign * float64(mant) * 0x1p-24
	default:
		return sign * math.Ldexp(float64(1024+mant), exp-25)
	}
}

// FP16WireBytes is the modeled wire size of an fp16-encoded bucket.
func FP16WireBytes(elems int) int64 { return int64(elems) * 2 }

// FP16Codec quantizes one gradient bucket to half precision with
// error-feedback residual accumulation. One codec instance belongs to one
// (worker, bucket) pair; its residual carries the local quantization error
// from step to step and must not be shared across workers.
type FP16Codec struct {
	residual []float64
}

// ApplyInPlace replaces every element with its half-precision wire value
// after folding in the residual, and retains the new quantization error:
//
//	sent  = fp16(v + r)
//	r'    = (v + r) - sent
//
// This is the compressed send path: vec afterwards holds exactly what every
// peer decodes, so replicas that exchange it stay bitwise identical. A
// length change (re-bucketing) drops the residual.
//
// Non-finite inputs never enter the residual: a NaN ships as NaN and an
// Inf ships saturated, both with the error reset — carrying ±Inf forward
// would pin the element's shipped value at max-half forever.
func (c *FP16Codec) ApplyInPlace(vec []float64) {
	if len(c.residual) != len(vec) {
		c.residual = make([]float64, len(vec))
	}
	for i, v := range vec {
		want := v + c.residual[i]
		sent := Float16ToFloat64(Float16FromFloat64(want))
		if math.IsNaN(sent) {
			// Never launder NaN through the residual: ship it, reset error.
			vec[i] = want
			c.residual[i] = 0
			continue
		}
		vec[i] = sent
		if math.IsInf(want, 0) {
			// Saturation consumed the overflow; the "error" is infinite and
			// must not poison future steps.
			c.residual[i] = 0
		} else {
			c.residual[i] = want - sent
		}
	}
}
