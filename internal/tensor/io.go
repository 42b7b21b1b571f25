package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// ReadFloat32s reads n little-endian float32 values, the encoding of every
// matrix the dataset and persist formats store. Past a first buffer of at
// most 2²⁰ values it grows only as bytes arrive, so a corrupt count costs
// an error at the end of the input, not an allocation sized by the count.
// A short input is io.ErrUnexpectedEOF.
func ReadFloat32s(r io.Reader, n int) ([]float32, error) {
	const chunk = 1 << 14 // values per read
	buf := make([]byte, 4*min(n, chunk))
	out := make([]float32, 0, min(n, 1<<20))
	for len(out) < n {
		k := min(n-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if cap(out)-len(out) < k {
			out = slices.Grow(out, min(n, 2*cap(out))-len(out))
		}
		for b := buf[:4*k]; len(b) > 0; b = b[4:] {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b)))
		}
	}
	return out, nil
}
