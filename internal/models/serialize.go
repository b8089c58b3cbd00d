package models

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"reramtest/internal/nn"
)

// weightsMagic identifies the repository's binary weight file format.
const weightsMagic = 0x52524e57 // "RRNW" — ReRam Network Weights

// SaveWeights writes every parameter of net to path in a self-describing
// little-endian binary format (magic, version, param count, then per param:
// name, shape, float64 data).
func SaveWeights(path string, net *nn.Network) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: creating %s: %w", path, err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	params := net.Params()
	if err := writeHeader(w, len(params)); err != nil {
		return fmt.Errorf("models: writing header to %s: %w", path, err)
	}
	for _, p := range params {
		if err := writeParam(w, p); err != nil {
			return fmt.Errorf("models: writing param %s to %s: %w", p.Name, path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("models: flushing %s: %w", path, err)
	}
	return nil
}

// LoadWeights reads a weight file written by SaveWeights into net. Parameter
// names and shapes must match exactly — a mismatch means the file belongs to
// a different architecture and is reported as an error rather than silently
// misloaded.
func LoadWeights(path string, net *nn.Network) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("models: opening %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	count, err := readHeader(r)
	if err != nil {
		return fmt.Errorf("models: reading header of %s: %w", path, err)
	}
	params := net.Params()
	if count != len(params) {
		return fmt.Errorf("models: %s holds %d params, network %s has %d", path, count, net.Name(), len(params))
	}
	for _, p := range params {
		if err := readParam(r, p); err != nil {
			return fmt.Errorf("models: reading param %s from %s: %w", p.Name, path, err)
		}
	}
	return nil
}

func writeHeader(w io.Writer, count int) error {
	for _, v := range []uint32{weightsMagic, 1, uint32(count)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readHeader(r io.Reader) (count int, err error) {
	var magic, version, n uint32
	for _, p := range []*uint32{&magic, &version, &n} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return 0, err
		}
	}
	if magic != weightsMagic {
		return 0, fmt.Errorf("bad magic 0x%08x", magic)
	}
	if version != 1 {
		return 0, fmt.Errorf("unsupported version %d", version)
	}
	return int(n), nil
}

func writeParam(w io.Writer, p *nn.Param) error {
	if err := writeString(w, p.Name); err != nil {
		return err
	}
	shape := p.Value.Shape()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	buf := make([]byte, 8*p.Value.Len())
	for i, v := range p.Value.Data() {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readParam(r io.Reader, p *nn.Param) error {
	name, err := readString(r)
	if err != nil {
		return err
	}
	if name != p.Name {
		return fmt.Errorf("file has param %q, network expects %q", name, p.Name)
	}
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return err
	}
	want := p.Value.Shape()
	if int64(rank) != int64(len(want)) {
		return fmt.Errorf("file param has rank %d, network expects shape %v", rank, want)
	}
	for i, w := range want {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return err
		}
		if int64(d) != int64(w) {
			return fmt.Errorf("file param has dimension %d = %d, network expects shape %v", i, d, want)
		}
	}
	buf := make([]byte, 8*p.Value.Len())
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	vd := p.Value.Data()
	for i := range vd {
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("element %d is %v", i, v)
		}
		vd[i] = v
	}
	return nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string length %d implausibly large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
