package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// addSpecials are the IEEE binary32 values whose sums a vector add could get
// wrong while finite normals come out right: signed zeros, infinities, NaNs
// with distinct payloads and signs (which operand's payload survives is
// the operand order), subnormals and the largest finite values.
var addSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00123),
	math.Float32frombits(0xffc00456), math.Float32frombits(0x7f800001),
	math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
}

// addOperand fills v with random values, every third lane a special.
func addOperand(rng *rand.Rand, v Vector) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = addSpecials[rng.Intn(len(addSpecials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
}

// sameBits reports the first lane where got and want differ in any bit.
func sameBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: lane %d = %#08x, generic loop gives %#08x", what, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestAddMatchesGeneric pins Add's body to addGeneric bit for bit: every
// length 0–67 (each step width and every tail), rows starting at every
// offset mod 4 floats (unaligned 16-byte loads), dst aliasing a and b, and
// the specials on every lane — every special against every special
// included.
func TestAddMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			abuf, bbuf := make(Vector, off+n+3), make(Vector, off+n+3)
			addOperand(rng, abuf)
			addOperand(rng, bbuf)
			a, b := abuf[off:off+n], bbuf[3-off:3-off+n]
			want := NewVector(n)
			addGeneric(want, a, b)
			what := fmt.Sprintf("n=%d off=%d", n, off)

			dbuf := make(Vector, n+off+1)
			dst := dbuf[off+1 : off+1+n]
			Add(dst, a, b)
			sameBits(t, what, dst, want)

			ac := a.Clone()
			Add(ac, ac, b)
			sameBits(t, what+" dst=a", ac, want)
			bc := b.Clone()
			Add(bc, a, bc)
			sameBits(t, what+" dst=b", bc, want)
		}
	}
	k := len(addSpecials)
	a, b := NewVector(k*k), NewVector(k*k)
	for i, x := range addSpecials {
		for j, y := range addSpecials {
			a[i*k+j], b[i*k+j] = x, y
		}
	}
	want, got := NewVector(k*k), NewVector(k*k)
	addGeneric(want, a, b)
	Add(got, a, b)
	sameBits(t, "specials × specials", got, want)
}

// TestAddLengthMismatchPanicsUntouched: Add refuses mismatched lengths
// before its body runs, so dst is left as it was.
func TestAddLengthMismatchPanicsUntouched(t *testing.T) {
	for _, c := range []struct{ dst, a, b int }{{4, 4, 3}, {4, 3, 4}, {3, 4, 4}, {17, 16, 16}} {
		dst := make(Vector, c.dst)
		for i := range dst {
			dst[i] = 7
		}
		a, b := make(Vector, c.a), make(Vector, c.b)
		for i := range a {
			a[i] = 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d, %d, %d) did not panic", c.dst, c.a, c.b)
				}
			}()
			Add(dst, a, b)
		}()
		for i, v := range dst {
			if v != 7 {
				t.Fatalf("Add(%d, %d, %d) wrote dst[%d] = %g before panicking", c.dst, c.a, c.b, i, v)
			}
		}
	}
}

// BenchmarkAdd folds one random row into another at the fold's widths
// (hidden 32, the serving width, and 256, the paper's), through Add and
// through the portable loop, so the two bodies can be compared on one host.
func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{32, 256} {
		x, y := RandVector(rng, n, 1), RandVector(rng, n, 1)
		for _, body := range []struct {
			name string
			f    func(dst, a, b Vector)
		}{{"kernel", Add}, {"generic", addGeneric}} {
			b.Run(fmt.Sprintf("%d/%s", n, body.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body.f(x, x, y)
				}
			})
		}
	}
}
