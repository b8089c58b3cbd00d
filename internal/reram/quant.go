package reram

import "fmt"

// Quantizer models a DAC or ADC: a uniform quantizer with 2^Bits levels over
// [Lo, Hi]. Bits ≤ 0 disables quantization (ideal converter).
type Quantizer struct {
	Bits   int
	Lo, Hi float64
}

// Quantize snaps v to the nearest representable level, saturating at the
// range bounds.
func (q Quantizer) Quantize(v float64) float64 {
	if q.Bits <= 0 {
		return v
	}
	if q.Hi <= q.Lo {
		return q.Lo
	}
	levels := float64(uint64(1)<<uint(q.Bits)) - 1
	if v <= q.Lo {
		return q.Lo
	}
	if v >= q.Hi {
		return q.Hi
	}
	step := (q.Hi - q.Lo) / levels
	n := (v - q.Lo) / step
	return q.Lo + float64(int64(n+0.5))*step
}

// QuantizeSlice quantizes every element of v in place.
func (q Quantizer) QuantizeSlice(v []float64) {
	if q.Bits <= 0 {
		return
	}
	for i := range v {
		v[i] = q.Quantize(v[i])
	}
}

// String describes the converter.
func (q Quantizer) String() string {
	if q.Bits <= 0 {
		return "ideal"
	}
	return fmt.Sprintf("%d-bit [%g, %g]", q.Bits, q.Lo, q.Hi)
}
