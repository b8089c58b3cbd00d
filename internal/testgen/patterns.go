// Package testgen implements the paper's test-pattern generators — the core
// contribution of the reproduction:
//
//   - C-TP ("corner data" test patterns, §III-A): inference-set images ranked
//     by ascending standard deviation of their output logits; the flattest
//     logit vectors sit closest to all decision surfaces simultaneously and
//     flip most easily under weight errors.
//   - O-TP (optimization-based test patterns, §III-B, Algorithm 1): patterns
//     synthesised from white noise by gradient descent on the input, driven
//     to look maximally ambiguous to the clean model (uniform soft label)
//     while maximally confident to a reference fault model (hard label).
//   - AET (baseline, [9]): FGSM adversarial examples built from random test
//     images.
//
// All three return a PatternSet: a small batch of images run concurrently
// with normal traffic whose confidence drift against golden outputs reveals
// the accelerator's fault status.
package testgen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"reramtest/internal/tensor"
)

// PatternSet is a named batch of test patterns, stored like a dataset batch:
// (M, D) with D the flattened image size.
type PatternSet struct {
	Name   string
	Method string // "ctp", "otp", "aet", "plain"
	X      *tensor.Tensor
	// Labels holds per-pattern metadata: for C-TP/AET the source image's
	// true class, for O-TP the hard-label target class.
	Labels []int
}

// M returns the number of patterns.
func (p *PatternSet) M() int { return p.X.Dim(0) }

// Dim returns the flattened pattern size.
func (p *PatternSet) Dim() int { return p.X.Dim(1) }

// Head returns a PatternSet containing only the first m patterns (sharing
// no storage with the original).
func (p *PatternSet) Head(m int) *PatternSet {
	if m > p.M() {
		m = p.M()
	}
	d := p.Dim()
	x := tensor.New(m, d)
	copy(x.Data(), p.X.Data()[:m*d])
	return &PatternSet{Name: p.Name, Method: p.Method, X: x, Labels: append([]int(nil), p.Labels[:m]...)}
}

const patternMagic = 0x52525450 // "RRTP" — ReRam Test Patterns

// Save writes the pattern set to path in a little-endian binary format.
func (p *PatternSet) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("testgen: creating %s: %w", path, err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := binary.Write(w, binary.LittleEndian, uint32(patternMagic)); err != nil {
		return err
	}
	for _, s := range []string{p.Name, p.Method} {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	m, d := p.M(), p.Dim()
	for _, v := range []uint32{uint32(m), uint32(d)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, y := range p.Labels {
		if err := binary.Write(w, binary.LittleEndian, int32(y)); err != nil {
			return err
		}
	}
	buf := make([]byte, 8*p.X.Len())
	for i, v := range p.X.Data() {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// LoadPatternSet reads a pattern set written by Save. The header's pattern
// count and dimension must account for exactly the bytes the file holds
// after it, checked before anything is allocated; a negative label or a
// non-finite value is refused too. Every error names the file.
func LoadPatternSet(path string) (*PatternSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("testgen: reading %s: %w", path, err)
	}
	p, err := decodePatternSet(b)
	if err != nil {
		return nil, fmt.Errorf("testgen: %s: %w", path, err)
	}
	return p, nil
}

// decodePatternSet parses Save's format from b.
func decodePatternSet(b []byte) (*PatternSet, error) {
	truncated := fmt.Errorf("truncated at %d bytes", len(b))
	u32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	str := func() (string, bool) {
		n, ok := u32()
		if !ok || int64(n) > int64(len(b)) {
			return "", false
		}
		s := string(b[:n])
		b = b[n:]
		return s, true
	}
	magic, ok := u32()
	if !ok {
		return nil, truncated
	}
	if magic != patternMagic {
		return nil, fmt.Errorf("magic 0x%08x, want 0x%08x", magic, patternMagic)
	}
	name, okName := str()
	method, okMethod := str()
	m, okM := u32()
	d, okD := u32()
	if !okName || !okMethod || !okM || !okD {
		return nil, truncated
	}
	p := &PatternSet{Name: name, Method: method}
	// each pattern is a 4-byte label plus d 8-byte values; divide rather
	// than multiply so no product of two header words can overflow
	left := int64(len(b))
	if int64(d) > left/8 || int64(m) > left/(4+8*int64(d)) || int64(m)*(4+8*int64(d)) != left {
		return nil, fmt.Errorf("header claims %d patterns of dimension %d, file holds %d bytes after it", m, d, left)
	}
	p.Labels = make([]int, m)
	for i := range p.Labels {
		y := int32(binary.LittleEndian.Uint32(b[4*i:]))
		if y < 0 {
			return nil, fmt.Errorf("pattern %d has label %d", i, y)
		}
		p.Labels[i] = int(y)
	}
	b = b[4*m:]
	p.X = tensor.New(int(m), int(d))
	xd := p.X.Data()
	for i := range xd {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("pattern %d element %d is %v", i/int(d), i%int(d), v)
		}
		xd[i] = v
	}
	return p, nil
}

// WritePGM dumps pattern i as a binary PGM grayscale image (for multichannel
// patterns the channel mean is written), reproducing the paper's Fig. 2
// visualisation of O-TP noise patterns.
func (p *PatternSet) WritePGM(path string, i, c, h, w int) error {
	if i < 0 || i >= p.M() {
		return fmt.Errorf("testgen: pattern index %d out of range [0,%d)", i, p.M())
	}
	if c*h*w != p.Dim() {
		return fmt.Errorf("testgen: shape %dx%dx%d does not match pattern dim %d", c, h, w, p.Dim())
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("testgen: creating %s: %w", path, err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", w, h)
	data := p.X.Data()[i*p.Dim() : (i+1)*p.Dim()]
	plane := h * w
	for py := 0; py < h; py++ {
		for px := 0; px < w; px++ {
			v := 0.0
			for ch := 0; ch < c; ch++ {
				v += data[ch*plane+py*w+px]
			}
			v /= float64(c)
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			if err := bw.WriteByte(byte(v*255 + 0.5)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
