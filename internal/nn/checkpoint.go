package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"longexposure/internal/tensor"
)

// Checkpoint format: a simple self-describing binary stream —
//
//	magic "LEXP" | version u32 | param count u32 |
//	per param: name (u32 len + bytes) | rank u32 | dims u32... | f32 data
//
// Only parameter values are stored; structure (config, PEFT modules) must
// match at load time, which Load verifies by name and shape.

const (
	ckptMagic   = "LEXP"
	ckptVersion = 1
)

// Save writes every parameter of the set to w.
func (ps ParamSet) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ckptVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	for _, p := range ps {
		if err := writeString(bw, p.Name); err != nil {
			return err
		}
		shape := p.W.Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		buf := make([]byte, 4*len(p.W.Data))
		for i, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint written by Save into the set. Every stored
// parameter must exist with an identical shape; parameters present in the
// set but missing from the checkpoint are left untouched (so a backbone
// checkpoint can be loaded into a PEFT-extended model).
func (ps ParamSet) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	count, err := readHeader(br)
	if err != nil {
		return err
	}
	byName := make(map[string]*Parameter, len(ps))
	for _, p := range ps {
		byName[p.Name] = p
	}
	for i := uint32(0); i < count; i++ {
		name, shape, n, err := readParamHeader(br)
		if err != nil {
			return err
		}
		p, ok := byName[name]
		if !ok {
			return fmt.Errorf("nn: checkpoint parameter %q not in model", name)
		}
		// A compressed layer keeps its shape but has freed its f32 storage.
		if p.W.Len() != n || !slices.Equal(shape, p.W.Shape()) {
			return fmt.Errorf("nn: %s shape mismatch: checkpoint %v vs model %v", name, shape, p.W.Shape())
		}
		if _, err := readFloats(br, p.W.Data[:0], n); err != nil {
			return fmt.Errorf("nn: reading %s data: %w", name, err)
		}
	}
	return nil
}

// LoadParams reads a checkpoint stream written by Save and returns a
// freshly allocated parameter set in checkpoint order — the loader for
// artifacts whose structure is not known in advance (the adapter deltas
// internal/registry stores). The stream is untrusted: nothing is
// allocated ahead of the bytes that back it, so a corrupt header fails
// with an error instead of exhausting memory.
func LoadParams(r io.Reader) (ParamSet, error) {
	br := bufio.NewReader(r)
	count, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	var ps ParamSet
	for i := uint32(0); i < count; i++ {
		name, shape, n, err := readParamHeader(br)
		if err != nil {
			return nil, err
		}
		data, err := readFloats(br, nil, n)
		if err != nil {
			return nil, fmt.Errorf("nn: reading %s data: %w", name, err)
		}
		ps = append(ps, &Parameter{Name: name, W: tensor.FromSlice(data, shape...), Grad: tensor.New(shape...)})
	}
	return ps, nil
}

// readHeader checks the stream's magic and version and returns its
// parameter count.
func readHeader(r io.Reader) (uint32, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, fmt.Errorf("nn: reading checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return 0, fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return 0, err
	}
	if version != ckptVersion {
		return 0, fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return 0, err
	}
	return count, nil
}

// maxCkptElems bounds a stored tensor's element count so its byte size
// (4 per element) fits an int.
const maxCkptElems = math.MaxInt / 4

// readParamHeader reads one parameter's name and shape and returns its
// element count, rejecting an implausible rank and a dim product that
// overflows.
func readParamHeader(r io.Reader) (name string, shape []int, n int, err error) {
	if name, err = readString(r); err != nil {
		return "", nil, 0, err
	}
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return "", nil, 0, err
	}
	if rank > 8 {
		return "", nil, 0, fmt.Errorf("nn: implausible rank %d for %s", rank, name)
	}
	n = 1
	shape = make([]int, rank)
	for d := range shape {
		var v uint32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return "", nil, 0, err
		}
		if v != 0 && n > maxCkptElems/int(v) {
			return "", nil, 0, fmt.Errorf("nn: %s shape overflows at dim %d", name, d)
		}
		shape[d] = int(v)
		n *= int(v)
	}
	return name, shape, n, nil
}

// readFloats appends n little-endian float32 values read from r to dst.
// It reads in bounded chunks, so a count beyond what the stream holds
// fails at the stream's end having allocated only about what was there;
// a dst with room for n values is filled in place.
func readFloats(r io.Reader, dst []float32, n int) ([]float32, error) {
	const chunk = 1 << 14 // values per read
	buf := make([]byte, 4*min(n, chunk))
	for n > 0 {
		k := min(n, chunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, err
		}
		dst = slices.Grow(dst, k)
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		n -= k
	}
	return dst, nil
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
	if n > 1<<20 {
		return "", fmt.Errorf("nn: implausible name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
