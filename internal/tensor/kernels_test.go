package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the IEEE binary32 values a vector body could get wrong while
// finite normals come out right: signed zeros (a ±0 tie selects by operand
// order, and -0 + +0 is +0), infinities, NaNs with distinct payloads and
// signs (which operand's payload survives is the operand order),
// subnormals and the largest finite values.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc00123),
	math.Float32frombits(0xffc00456), math.Float32frombits(0x7f800001),
	math.Float32frombits(0x00000001), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
}

// specialOperand fills v with random values, every third lane a special.
func specialOperand(rng *rand.Rand, v Vector) {
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
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

// matchGeneric pins a kernel to its portable loop bit for bit: every length
// 0–67 (each step width and every tail), rows starting at every offset mod 4
// floats (unaligned 16-byte loads), dst aliasing a and b, and the specials
// on every lane — every special against every special, in both orders,
// included.
func matchGeneric(t *testing.T, name string, kernel, generic func(dst, a, b Vector)) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			abuf, bbuf := make(Vector, off+n+3), make(Vector, off+n+3)
			specialOperand(rng, abuf)
			specialOperand(rng, bbuf)
			a, b := abuf[off:off+n], bbuf[3-off:3-off+n]
			want := NewVector(n)
			generic(want, a, b)
			what := fmt.Sprintf("%s n=%d off=%d", name, n, off)

			dbuf := make(Vector, n+off+1)
			dst := dbuf[off+1 : off+1+n]
			kernel(dst, a, b)
			sameBits(t, what, dst, want)

			ac := a.Clone()
			kernel(ac, ac, b)
			sameBits(t, what+" dst=a", ac, want)
			bc := b.Clone()
			kernel(bc, a, bc)
			sameBits(t, what+" dst=b", bc, want)
		}
	}
	k := len(specials)
	a, b := NewVector(k*k), NewVector(k*k)
	for i, x := range specials {
		for j, y := range specials {
			a[i*k+j], b[i*k+j] = x, y
		}
	}
	want, got := NewVector(k*k), NewVector(k*k)
	generic(want, a, b)
	kernel(got, a, b)
	sameBits(t, name+" specials × specials", got, want)
}

// mismatchUntouched checks that a kernel refuses mismatched lengths before
// its body runs, so dst is left as it was.
func mismatchUntouched(t *testing.T, name string, kernel func(dst, a, b Vector)) {
	t.Helper()
	for _, c := range []struct{ dst, a, b int }{{4, 4, 3}, {4, 3, 4}, {3, 4, 4}, {17, 16, 16}} {
		dst := make(Vector, c.dst)
		for i := range dst {
			dst[i] = 7
		}
		a, b := make(Vector, c.a), make(Vector, c.b)
		for i := range a {
			a[i] = 1
		}
		for i := range b {
			b[i] = 9
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(%d, %d, %d) did not panic", name, c.dst, c.a, c.b)
				}
			}()
			kernel(dst, a, b)
		}()
		for i, v := range dst {
			if v != 7 {
				t.Fatalf("%s(%d, %d, %d) wrote dst[%d] = %g before panicking", name, c.dst, c.a, c.b, i, v)
			}
		}
	}
}

// TestAddMatchesGeneric pins Add's body to addGeneric bit for bit.
func TestAddMatchesGeneric(t *testing.T) { matchGeneric(t, "Add", Add, addGeneric) }

// TestEltMaxMinMatchGeneric pins EltMax's and EltMin's bodies to their Go
// loops bit for bit: the select rule, not just the value, must agree, so ±0
// ties and NaN payloads come out of the same operand.
func TestEltMaxMinMatchGeneric(t *testing.T) {
	matchGeneric(t, "EltMax", EltMax, eltMaxGeneric)
	matchGeneric(t, "EltMin", EltMin, eltMinGeneric)
}

// TestAddLengthMismatchPanicsUntouched: Add, EltMax and EltMin refuse
// mismatched lengths before their bodies run.
func TestAddLengthMismatchPanicsUntouched(t *testing.T) {
	mismatchUntouched(t, "Add", Add)
	mismatchUntouched(t, "EltMax", EltMax)
	mismatchUntouched(t, "EltMin", EltMin)
}

// benchKernel times a kernel on two random rows at the serving width
// (hidden 32) and the paper's (256), through the kernel and through its
// portable loop, so the two bodies can be compared on one host. The result
// goes to a third row, so the operands stay the same two random rows on
// every iteration.
func benchKernel(b *testing.B, kernel, generic func(dst, a, b Vector)) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{32, 256} {
		dst, x, y := NewVector(n), RandVector(rng, n, 1), RandVector(rng, n, 1)
		for _, body := range []struct {
			name string
			f    func(dst, a, b Vector)
		}{{"kernel", kernel}, {"generic", generic}} {
			b.Run(fmt.Sprintf("%d/%s", n, body.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					body.f(dst, x, y)
				}
			})
		}
	}
}

// BenchmarkAdd times the fold kernel of the accumulative path.
func BenchmarkAdd(b *testing.B) { benchKernel(b, Add, addGeneric) }

// BenchmarkEltMax times the merge kernel of max aggregation; on random
// rows the generic loop's branch goes either way lane by lane.
func BenchmarkEltMax(b *testing.B) { benchKernel(b, EltMax, eltMaxGeneric) }
