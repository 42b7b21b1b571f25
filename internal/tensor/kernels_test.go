package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestAddRowsMatchesGeneric pins AddRows' body to addRowsGeneric bit for
// bit: every width 0–131 and 256 — every width x fits in registers whole
// (≤ 32) and every column-block boundary after it (the blocks are 32 floats),
// each with every 0–3-float tail — slabs starting at every offset mod 4
// floats, index lists with repeats (a row folded twice in one call, the
// second time onto the first result), and the specials on every lane of
// slab and operand. Every row of the slab, folded or not, must come out with
// the same bits, and so must the bitmap: it starts with random bits set, and
// both bodies must leave exactly those bits and the folded rows' set.
func TestAddRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const nrows = 9
	widths := make([]int, 0, 133)
	for n := 0; n <= 131; n++ {
		widths = append(widths, n)
	}
	for _, n := range append(widths, 256) {
		for off := 0; off < 4; off++ {
			buf := make(Vector, off+nrows*n)
			specialOperand(rng, buf)
			x := make(Vector, n)
			specialOperand(rng, x)
			rows := make([]int32, 1+rng.Intn(2*nrows))
			for k := range rows {
				rows[k] = int32(rng.Intn(nrows))
			}
			rows = append(rows, rows[0]) // at least one repeat
			marks := []uint64{rng.Uint64(), rng.Uint64()}
			what := fmt.Sprintf("AddRows n=%d off=%d rows=%v", n, off, rows)
			want, wantMarks := buf[off:].Clone(), slices.Clone(marks)
			addRowsGeneric(want, rows, x, wantMarks)
			sameMarks(t, what+" generic", wantMarks, marks, rows)
			got := buf[off:]
			AddRows(got, rows, x, marks)
			sameBits(t, what, got, want)
			if !slices.Equal(marks, wantMarks) {
				t.Fatalf("%s: marks %#x, generic loop gives %#x", what, marks, wantMarks)
			}
		}
	}
	// Every special against every special, in both orders.
	k := len(specials)
	slab, x := NewVector(k*k), NewVector(k)
	for i, y := range specials {
		x[i] = y
		for j, z := range specials {
			slab[j*k+i] = z
		}
	}
	rows := make([]int32, k)
	for j := range rows {
		rows[j] = int32(j)
	}
	want, wantMarks, marks := slab.Clone(), make([]uint64, 1), make([]uint64, 1)
	addRowsGeneric(want, rows, x, wantMarks)
	AddRows(slab, rows, x, marks)
	sameBits(t, "AddRows specials × specials", slab, want)
	sameMarks(t, "AddRows specials × specials", marks, []uint64{0}, rows)
}

// sameMarks checks that marks is before with exactly the bits of rows added.
func sameMarks(t *testing.T, what string, marks, before []uint64, rows []int32) {
	t.Helper()
	want := slices.Clone(before)
	for _, r := range rows {
		want[r/64] |= 1 << (r % 64)
	}
	if !slices.Equal(marks, want) {
		t.Fatalf("%s: marks %#x, want %#x", what, marks, want)
	}
}

// TestAddRowsOutOfRangePanics: an index past the slab's last row, below zero
// or past the bitmap's last bit panics before its row is touched or its bit
// set, after folding and marking the rows before it — in every column block,
// at widths 5 (a partial block), 32 (one whole block) and 256 (eight) — and
// neither body writes a float outside the slab or a word outside the bitmap.
// Slab and bitmap are the middle of guarded buffers, so a store past either
// end would show.
func TestAddRowsOutOfRangePanics(t *testing.T) {
	const guard = 8
	type tc struct {
		nrows, words int     // slab rows and bitmap words
		rows         []int32 // the bad index is rows[bad]
		bad          int
	}
	var cases []tc
	for _, bad := range []int32{4, 5, -1, -4, math.MaxInt32, math.MinInt32} {
		cases = append(cases, tc{4, 1, []int32{1, 3, bad, 2}, 2})
	}
	// Rows 64 and 65 lie in the slab, but their bits lie past a one-word
	// bitmap; with no bitmap at all, even row 0's bit does.
	cases = append(cases, tc{66, 1, []int32{1, 63, 64, 2}, 2}, tc{66, 1, []int32{65}, 0}, tc{66, 0, []int32{0, 1}, 0})
	for _, n := range []int{5, 32, 256} {
		x := make(Vector, n)
		for i := range x {
			x[i] = float32(i + 1)
		}
		for _, c := range cases {
			for _, body := range []struct {
				name string
				f    func(dst Vector, rows []int32, x Vector, marks []uint64)
			}{{"kernel", AddRows}, {"generic", addRowsGeneric}} {
				what := fmt.Sprintf("%s n=%d rows=%v marks=%d", body.name, n, c.rows, c.words)
				buf := make(Vector, guard+c.nrows*n+guard)
				for i := range buf {
					buf[i] = 7
				}
				slab := buf[guard : guard+c.nrows*n]
				mbuf := make([]uint64, 1+c.words+1)
				marks := mbuf[1 : 1+c.words]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s: row index %d did not panic", what, c.rows[c.bad])
						}
					}()
					body.f(slab, c.rows, x, marks)
				}()
				folded := c.rows[:c.bad]
				for i, v := range buf {
					want := float32(7)
					if r := (i - guard) / n; i >= guard && slices.Contains(folded, int32(r)) {
						want += x[(i-guard)%n] // folded before the bad index
					}
					if v != want {
						t.Fatalf("%s: buf[%d] = %g, want %g", what, i, v, want)
					}
				}
				wantM := make([]uint64, len(mbuf))
				for _, r := range folded {
					wantM[1+r/64] |= 1 << (r % 64)
				}
				if !slices.Equal(mbuf, wantM) {
					t.Fatalf("%s: guarded bitmap %#x, want %#x", what, mbuf, wantM)
				}
			}
		}
	}
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

// BenchmarkAddRows times the per-record fold of the accumulative path: one
// payload added to the rows of a record's out-neighbours, scattered as they
// are, and their bits set in a slab-wide bitmap, through one AddRows call and
// through the portable loop. The top-level
// case folds 16 rows of a 64-row slab, an ordinary source; hub/ folds 1 024
// rows of a 4 096-row slab, a hub's adjacency list, where the call is a
// stream of rows and any per-row reload of the payload shows (ns/op ÷ 1 024
// is the cost of one arc).
func BenchmarkAddRows(b *testing.B) {
	bench := func(b *testing.B, nrows, slabRows int) {
		rng := rand.New(rand.NewSource(9))
		slab := NewVector(slabRows * 256)
		marks := make([]uint64, slabRows/64)
		rows := make([]int32, nrows)
		for k := range rows {
			rows[k] = int32(rng.Intn(slabRows))
		}
		via := func(f func(Vector, []int32, Vector, []uint64)) func(dst, a, b Vector) {
			return func(_, a, _ Vector) { f(slab[:slabRows*len(a)], rows, a, marks) }
		}
		benchKernel(b, via(AddRows), via(addRowsGeneric))
	}
	bench(b, 16, 64)
	b.Run("hub", func(b *testing.B) { bench(b, 1024, 4096) })
}

// BenchmarkEltMax times the merge kernel of max aggregation; on random
// rows the generic loop's branch goes either way lane by lane.
func BenchmarkEltMax(b *testing.B) { benchKernel(b, EltMax, eltMaxGeneric) }
