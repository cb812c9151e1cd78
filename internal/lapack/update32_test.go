package lapack

import (
	"fmt"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// The resident float32 QR update kernels at the production tile order,
// poisoned as in update_test.go: every entry a kernel must not read — R
// above V's unit diagonal, V2's strictly lower part, T's strictly lower
// part — is NaN in the float32 image, and the result must be finite and
// match op(Q)·C formed in float64 from dense, zero-filled copies by GEMMs
// alone, to float32 accuracy.

// image32 returns the float32 image of m; NaN entries stay NaN.
func image32(m *mat.Matrix) *mat.Matrix32 {
	img := mat.NewMatrix32(m.Rows, m.Cols)
	img.RoundFrom(m)
	return img
}

// widened returns the float64 matrix holding float64(img).
func widened(img *mat.Matrix32) *mat.Matrix {
	m := mat.New(img.Rows, img.Cols)
	img.WidenInto(m)
	return m
}

func checkUpdate32(t *testing.T, name string, got *mat.Matrix32, want *mat.Matrix) {
	t.Helper()
	g := widened(got)
	if !g.IsFinite() {
		t.Fatalf("%s: result is not finite: a poisoned entry was read", name)
	}
	if d := mat.MaxDiff(g, want); d > 2e-6*float64(g.Rows)*(1+want.NormMax()) {
		t.Fatalf("%s: differs from the dense reference by %g", name, d)
	}
}

func TestUnmqr32RPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{updateNB, 2 * updateNB} {
		v, tt := image32(randMat(rng, m, updateNB)), mat.NewMatrix32(updateNB, updateNB)
		Geqrt32R(v, tt)
		v64, t64 := widened(v), widened(tt)
		vd, td := poisonAbove(v64), poisonLower(t64, false)
		vp, tp := image32(v64), image32(t64)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			c := image32(randMat(rng, m, 150))
			want := widened(c)
			applyDenseQ(trans, vd, td, want)
			Unmqr32R(trans, vp, tp, c)
			checkUpdate32(t, fmt.Sprintf("Unmqr32R m=%d trans=%v", m, trans), c, want)
		}
	}
}

func TestTsmqr32RPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r, a := image32(randMat(rng, updateNB, updateNB)), image32(randMat(rng, updateNB, updateNB))
	tt := mat.NewMatrix32(updateNB, updateNB)
	Tsqrt32R(r, a, tt)
	t64 := widened(tt)
	td := poisonLower(t64, false)
	tp := image32(t64)
	vd := stack(mat.Identity(updateNB), widened(a))
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1, c2 := image32(randMat(rng, updateNB, 150)), image32(randMat(rng, updateNB, 150))
		want := stack(widened(c1), widened(c2))
		applyDenseQ(trans, vd, td, want)
		Tsmqr32R(trans, a, tp, c1, c2)
		got := mat.NewMatrix32(2*updateNB, 150)
		got.RoundFrom(stack(widened(c1), widened(c2)))
		checkUpdate32(t, fmt.Sprintf("Tsmqr32R trans=%v", trans), got, want)
	}
}

func TestTtmqr32RPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r1, r2 := image32(randMat(rng, updateNB, updateNB)), image32(randMat(rng, updateNB, updateNB))
	tt := mat.NewMatrix32(updateNB, updateNB)
	Ttqrt32R(r1, r2, tt)
	r2w, t64 := widened(r2), widened(tt)
	vd := stack(mat.Identity(updateNB), poisonLower(r2w, false))
	td := poisonLower(t64, false)
	v2p, tp := image32(r2w), image32(t64)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1, c2 := image32(randMat(rng, updateNB, 150)), image32(randMat(rng, updateNB, 150))
		want := stack(widened(c1), widened(c2))
		applyDenseQ(trans, vd, td, want)
		Ttmqr32R(trans, v2p, tp, c1, c2)
		got := mat.NewMatrix32(2*updateNB, 150)
		got.RoundFrom(stack(widened(c1), widened(c2)))
		checkUpdate32(t, fmt.Sprintf("Ttmqr32R trans=%v", trans), got, want)
	}
}

// TestUpdateKernels32RZeroAlloc pins the steady-state zero-allocation
// contract of the resident float32 QR update kernels at the production tile
// order: W and the packing buffers come from the float32 workspace arena
// and every sub-matrix header stays on the stack.
func TestUpdateKernels32RZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(34))
	img := func() *mat.Matrix32 { return image32(randMat(rng, updateNB, updateNB)) }
	v, r, a, r1, r2 := img(), img(), img(), img(), img()
	tGe, tTs, tTt := mat.NewMatrix32(updateNB, updateNB), mat.NewMatrix32(updateNB, updateNB), mat.NewMatrix32(updateNB, updateNB)
	Geqrt32R(v, tGe)
	Tsqrt32R(r, a, tTs)
	Ttqrt32R(r1, r2, tTt)
	c1, c2 := img(), img()
	for name, run := range map[string]func(){
		"Unmqr32R": func() { Unmqr32R(blas.Trans, v, tGe, c1) },
		"Tsmqr32R": func() { Tsmqr32R(blas.Trans, a, tTs, c1, c2) },
		"Ttmqr32R": func() { Ttmqr32R(blas.Trans, r2, tTt, c1, c2) },
	} {
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s nb=%d: %v allocs/op, want 0", name, updateNB, allocs)
		}
	}
}
