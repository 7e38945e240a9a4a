// Per-kernel identity tests for the dispatched saxpy kernels. Every
// kernel the CPU offers must be bit-identical (math.Float32bits) to the
// portable Go reference on every length (vector body + scalar tail) and
// on special values: signed zeros, denormals, infinities, and NaNs
// flowing through the b operands.

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refSaxpy4 is the scalar contract saxpy4 kernels must match
// bit-for-bit: four sequential single-precision mul+add pairs per
// element, ascending term order.
func refSaxpy4(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	for j := range b0 {
		v := orow[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		orow[j] = v
	}
}

// refSaxpy1 is the scalar contract saxpy1 kernels must match.
func refSaxpy1(orow []float32, a float32, brow []float32) {
	for j, bv := range brow {
		orow[j] += a * bv
	}
}

// saxpyLengths covers empty, sub-vector, vector-boundary (4- and
// 8-wide), and large sizes, each with every possible tail remainder.
var saxpyLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 511, 512, 513}

// Special-value sets for the identity sweep. Infinities and NaNs are
// tested in SEPARATE passes: mixing them creates both-NaN additions
// (invalid-op indefinite NaN 0xffc00000 meeting a propagated input NaN
// 0x7fc00000), and which payload survives x+y when both are NaN depends
// on operand order the Go compiler is free to choose — there is no
// single right answer to pin. Within each pass every NaN that can arise
// has one payload, so strict Float32bits identity holds.
type specialSet struct {
	name   string
	bVals  []float32 // specials mixed into b operands and the accumulator
	coeffs []float32 // a-coefficients (never NaN: both-NaN products are ambiguous too)
}

func specialSets() []specialSet {
	negZero := float32(math.Copysign(0, -1))
	return []specialSet{
		{
			name:   "inf",
			bVals:  []float32{0, negZero, 1e-45, -1e-45, 1e-38, float32(math.Inf(1)), float32(math.Inf(-1))},
			coeffs: []float32{0.5, -3, 1e-20, float32(math.Inf(1)), negZero, 2},
		},
		{
			name:   "nan",
			bVals:  []float32{0, negZero, 1e-45, -1e-45, 1e-38, float32(math.NaN())},
			coeffs: []float32{0.5, -3, 1e-20, negZero, 2},
		},
	}
}

// fillSpecial seeds a slice with a deterministic mix of ordinary values
// and the set's specials.
func fillSpecial(dst []float32, rng *rand.Rand, specials []float32) {
	for i := range dst {
		if rng.Intn(4) == 0 {
			dst[i] = specials[rng.Intn(len(specials))]
		} else {
			dst[i] = rng.Float32()*4 - 2
		}
	}
}

// forEachVectorKernel runs fn once per non-generic kernel available on
// this CPU, restoring the startup dispatch afterwards.
func forEachVectorKernel(t *testing.T, fn func(t *testing.T, name string)) {
	t.Helper()
	startup := MatMulKernel()
	defer func() {
		if err := SetMatMulKernel(startup); err != nil {
			t.Fatal(err)
		}
	}()
	ran := false
	for _, name := range MatMulKernels() {
		if name == KernelGeneric {
			continue
		}
		ran = true
		t.Run(name, func(t *testing.T) {
			if err := SetMatMulKernel(name); err != nil {
				t.Fatal(err)
			}
			fn(t, name)
		})
	}
	if !ran {
		t.Skip("no vector kernels on this architecture")
	}
}

func TestSaxpyKernelsBitIdentical(t *testing.T) {
	forEachVectorKernel(t, func(t *testing.T, name string) {
		for _, set := range specialSets() {
			t.Run(set.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				for _, n := range saxpyLengths {
					b0, b1, b2, b3 := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
					fillSpecial(b0, rng, set.bVals)
					fillSpecial(b1, rng, set.bVals)
					fillSpecial(b2, rng, set.bVals)
					fillSpecial(b3, rng, set.bVals)
					base := make([]float32, n)
					fillSpecial(base, rng, set.bVals)

					for trial := 0; trial < 4; trial++ {
						a0 := set.coeffs[rng.Intn(len(set.coeffs))]
						a1 := set.coeffs[rng.Intn(len(set.coeffs))]
						a2 := set.coeffs[rng.Intn(len(set.coeffs))]
						a3 := set.coeffs[rng.Intn(len(set.coeffs))]

						got4 := append([]float32(nil), base...)
						want4 := append([]float32(nil), base...)
						saxpy4Impl(got4, a0, a1, a2, a3, b0, b1, b2, b3)
						refSaxpy4(want4, a0, a1, a2, a3, b0, b1, b2, b3)
						compareSaxpy(t, "saxpy4", name, n, got4, want4)

						got1 := append([]float32(nil), base...)
						want1 := append([]float32(nil), base...)
						saxpy1Impl(got1, a0, b0)
						refSaxpy1(want1, a0, b0)
						compareSaxpy(t, "saxpy1", name, n, got1, want1)
					}
				}
			})
		}
	})
}

// refDaxpy4 is the scalar contract Daxpy4 kernels must match
// bit-for-bit: four sequential float64 multiply and add pairs per
// element, ascending term order, each row value widened exactly.
func refDaxpy4(acc []float64, x [4]float64, rows [4][]float32) {
	for j := range acc {
		a := acc[j]
		for k := range x {
			a += float64(x[k] * float64(rows[k][j]))
		}
		acc[j] = a
	}
}

// TestDaxpy4KernelsBitIdentical pins Daxpy4 under every kernel set the
// CPU offers, the generic one included, to refDaxpy4 by
// math.Float64bits on every tail length and on the saxpy special values.
// In the cancellation set, 2^60 + 1 rounds to 2^60 in float64, so any
// reordering or fusing of the four adds changes some element.
func TestDaxpy4KernelsBitIdentical(t *testing.T) {
	startup := MatMulKernel()
	defer func() { _ = SetMatMulKernel(startup) }()
	sets := append(specialSets(), specialSet{
		name:   "cancel",
		bVals:  []float32{1 << 60, -1 << 60, 1},
		coeffs: []float32{1, -1, 2, 0.5},
	})
	lengths := []int{120, 1024}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, name := range MatMulKernels() {
		t.Run(name, func(t *testing.T) {
			if err := SetMatMulKernel(name); err != nil {
				t.Fatal(err)
			}
			for _, set := range sets {
				rng := rand.New(rand.NewSource(11))
				for _, n := range lengths {
					checkDaxpy4(t, rng, set, n)
				}
			}
		})
	}
}

// checkDaxpy4 runs four trials of Daxpy4 on length n against refDaxpy4.
// The last two draw full-precision coefficients: a float32 coefficient
// times a float32 row value is exact in float64, so only those products
// round, and only they would show a multiply fused into its add.
func checkDaxpy4(t *testing.T, rng *rand.Rand, set specialSet, n int) {
	t.Helper()
	var rows [4][]float32
	for k := range rows {
		rows[k] = make([]float32, n+k) // rows may be longer than acc
		fillSpecial(rows[k], rng, set.bVals)
	}
	base := make([]float32, n)
	fillSpecial(base, rng, set.bVals)
	for trial := 0; trial < 4; trial++ {
		var x [4]float64
		for k := range x {
			x[k] = float64(set.coeffs[rng.Intn(len(set.coeffs))])
			if trial >= 2 {
				x[k] = rng.NormFloat64()
			}
		}
		got, want := make([]float64, n), make([]float64, n)
		for j, v := range base {
			got[j], want[j] = float64(v), float64(v)
		}
		Daxpy4(got, &x, &rows)
		refDaxpy4(want, x, rows)
		for j := range want {
			if gb, wb := math.Float64bits(got[j]), math.Float64bits(want[j]); gb != wb {
				t.Fatalf("daxpy4 %s n=%d j=%d: got %v (%#016x), want %v (%#016x)",
					set.name, n, j, got[j], gb, want[j], wb)
			}
		}
	}
}

func compareSaxpy(t *testing.T, fn, kernel string, n int, got, want []float32) {
	t.Helper()
	for j := range want {
		gb, wb := math.Float32bits(got[j]), math.Float32bits(want[j])
		if gb == wb {
			continue
		}
		t.Fatalf("%s[%s] n=%d j=%d: got %v (0x%08x), want %v (0x%08x)",
			fn, kernel, n, j, got[j], gb, want[j], wb)
	}
}

// TestMatMulKernelsBitIdentical runs the full blocked matmul under every
// vector kernel and pins the output bits against the generic
// kernel's — the end-to-end version of the saxpy contract, covering the
// zero-skip fast path and tail handling on all three axes.
func TestMatMulKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, k, n := 33, 65, 129 // odd everything: tails on every axis
	infs := specialSets()[0].bVals
	a := MustNew(m, k)
	b := MustNew(k, n)
	fillSpecial(a.Data, rng, infs)
	fillSpecial(b.Data, rng, infs)
	for i := range a.Data {
		if rng.Intn(3) == 0 {
			a.Data[i] = 0 // exercise the zero-skip path
		}
	}

	startup := MatMulKernel()
	defer func() { _ = SetMatMulKernel(startup) }()

	if err := SetMatMulKernel(KernelGeneric); err != nil {
		t.Fatal(err)
	}
	want := MustNew(m, n)
	if err := MatMulInto(want, a, b); err != nil {
		t.Fatal(err)
	}

	for _, name := range MatMulKernels() {
		if name == KernelGeneric {
			continue
		}
		if err := SetMatMulKernel(name); err != nil {
			t.Fatal(err)
		}
		got := MustNew(m, n)
		if err := MatMulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("kernel %s diverges at element %d: got %v, want %v",
					name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestLogDispatch records the startup dispatch decision in the test log
// (run with -v) so CI output shows which kernel each runner exercised.
func TestLogDispatch(t *testing.T) {
	t.Logf("dispatched kernel: %s (available: %v)", MatMulKernel(), MatMulKernels())
}

// TestSetMatMulKernel covers the dispatch API itself.
func TestSetMatMulKernel(t *testing.T) {
	startup := MatMulKernel()
	defer func() { _ = SetMatMulKernel(startup) }()

	if err := SetMatMulKernel("no-such-kernel"); err == nil {
		t.Error("expected error for unknown kernel")
	}
	for _, name := range MatMulKernels() {
		if err := SetMatMulKernel(name); err != nil {
			t.Fatalf("advertised kernel %s rejected: %v", name, err)
		}
		if MatMulKernel() != name {
			t.Fatalf("set %s, reports %s", name, MatMulKernel())
		}
	}
}
