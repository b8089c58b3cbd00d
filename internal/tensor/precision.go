package tensor

import "fmt"

// Precision selects the numeric tier a compiled plan computes in. The zero
// value is F64, the scalar float64 reference arm — every existing caller that
// never mentions a precision keeps exactly the bits it had. The fast tiers are
// opt-in: F32 runs the 4-wide unrolled float32 kernels (bounded-ULP versus the
// reference), I8 runs the int8×int8→int32 quantized kernels that mirror the
// DAC/ADC resolution `internal/reram` models (exact versus a model-level
// quantize-then-f64 oracle).
type Precision uint8

const (
	// F64 is the scalar float64 reference tier: pinned by the engine's
	// golden_logits.json, and the arm every fast tier is gated against.
	F64 Precision = iota
	// F32 is the float32 fast tier: dot-product-form kernels with four
	// independent accumulators and fused bias/activation, accepted only
	// within a documented ULP envelope of the F64 reference.
	F32
	// I8 is the quantized tier: per-row affine int8 activations against
	// per-column int8 weights accumulated in int32, dequantized in float64.
	// It mirrors the 8-bit DAC/ADC converters of the reram model and must be
	// exactly equal to quantizing in the model domain and computing in f64.
	I8
)

// String returns the lower-case tier name.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case I8:
		return "i8"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ConvertF64ToF32 narrows src into dst element-wise. Lengths must match.
func ConvertF64ToF32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ConvertF64ToF32 length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// ConvertF32ToF64 widens src into dst element-wise. Lengths must match.
func ConvertF32ToF64(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ConvertF32ToF64 length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}
