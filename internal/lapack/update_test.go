package lapack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// The QR update kernels at the production tile order, where their
// triangular products run on the packed TRMM path: every entry a kernel
// must not read — R above V's unit diagonal, V2's strictly lower part, T's
// strictly lower part — is NaN-poisoned, and the result must be finite and
// equal to op(Q)·C formed from dense, zero-filled copies by GEMMs alone.

const updateNB = 192

// poisonLower sets the strictly lower part of m (diag: and its diagonal)
// to NaN and returns a dense copy with those entries zero (diag: one).
func poisonLower(m *mat.Matrix, diag bool) *mat.Matrix {
	clean := m.Clone()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols && j <= i; j++ {
			switch {
			case j < i:
				m.Set(i, j, math.NaN())
				clean.Set(i, j, 0)
			case diag:
				m.Set(i, j, math.NaN())
				clean.Set(i, j, 1)
			}
		}
	}
	return clean
}

// poisonAbove sets the upper triangle of the leading square of m, its
// diagonal included, to NaN — the R that shares a Geqrt tile with V — and
// returns the dense V: unit diagonal, zeros above.
func poisonAbove(m *mat.Matrix) *mat.Matrix {
	v := m.Clone()
	for i := 0; i < m.Cols; i++ {
		for j := i; j < m.Cols; j++ {
			m.Set(i, j, math.NaN())
			v.Set(i, j, 0)
		}
		v.Set(i, i, 1)
	}
	return v
}

// applyDenseQ overwrites c with op(Q)·c, Q = I − V·T·Vᵀ, by dense GEMMs.
func applyDenseQ(trans blas.Transpose, v, t, c *mat.Matrix) {
	w := mat.New(v.Cols, c.Cols)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, v, c, 0, w)
	tw := mat.New(v.Cols, c.Cols)
	blas.Gemm(trans, blas.NoTrans, 1, t, w, 0, tw)
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, v, tw, 1, c)
}

// stack returns [top; bottom].
func stack(top, bottom *mat.Matrix) *mat.Matrix {
	s := mat.New(top.Rows+bottom.Rows, top.Cols)
	s.View(0, 0, top.Rows, top.Cols).CopyFrom(top)
	s.View(top.Rows, 0, bottom.Rows, bottom.Cols).CopyFrom(bottom)
	return s
}

func checkUpdate(t *testing.T, name string, got, want *mat.Matrix) {
	t.Helper()
	if !got.IsFinite() {
		t.Fatalf("%s: result is not finite: a poisoned entry was read", name)
	}
	if d := mat.MaxDiff(got, want); d > 1e-11*float64(got.Rows)*(1+want.NormMax()) {
		t.Fatalf("%s: differs from the dense reference by %g", name, d)
	}
}

func TestUnmqrPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{updateNB, 2 * updateNB} {
		v := randMat(rng, m, updateNB)
		tt := mat.New(updateNB, updateNB)
		Geqrt(v, tt)
		vd, td := poisonAbove(v), poisonLower(tt, false)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			c := randMat(rng, m, 150)
			want := c.Clone()
			applyDenseQ(trans, vd, td, want)
			Unmqr(trans, v, tt, c)
			checkUpdate(t, fmt.Sprintf("Unmqr m=%d trans=%v", m, trans), c, want)
		}
	}
}

func TestTsmqrPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	r := randMat(rng, updateNB, updateNB)
	a := randMat(rng, updateNB, updateNB)
	tt := mat.New(updateNB, updateNB)
	Tsqrt(r, a, tt)
	td := poisonLower(tt, false)
	vd := stack(mat.Identity(updateNB), a)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1, c2 := randMat(rng, updateNB, 150), randMat(rng, updateNB, 150)
		want := stack(c1, c2)
		applyDenseQ(trans, vd, td, want)
		Tsmqr(trans, a, tt, c1, c2)
		checkUpdate(t, fmt.Sprintf("Tsmqr trans=%v", trans), stack(c1, c2), want)
	}
}

func TestTtmqrPoisonedStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r1 := randMat(rng, updateNB, updateNB)
	r2 := randMat(rng, updateNB, updateNB)
	tt := mat.New(updateNB, updateNB)
	Ttqrt(r1, r2, tt)
	vd := stack(mat.Identity(updateNB), poisonLower(r2, false))
	td := poisonLower(tt, false)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		c1, c2 := randMat(rng, updateNB, 150), randMat(rng, updateNB, 150)
		want := stack(c1, c2)
		applyDenseQ(trans, vd, td, want)
		Ttmqr(trans, r2, tt, c1, c2)
		checkUpdate(t, fmt.Sprintf("Ttmqr trans=%v", trans), stack(c1, c2), want)
	}
}

// TestUpdateKernelsZeroAlloc pins the steady-state zero-allocation
// contract of the QR update kernels at the production tile order: W and
// the packing buffers come from the workspace arena and every sub-matrix
// header stays on the stack.
func TestUpdateKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(24))
	v, r := randMat(rng, updateNB, updateNB), randMat(rng, updateNB, updateNB)
	tGe, tTs := mat.New(updateNB, updateNB), mat.New(updateNB, updateNB)
	Geqrt(v, tGe)
	a := randMat(rng, updateNB, updateNB)
	Tsqrt(r, a, tTs)
	r1, r2 := randMat(rng, updateNB, updateNB), randMat(rng, updateNB, updateNB)
	tTt := mat.New(updateNB, updateNB)
	Ttqrt(r1, r2, tTt)
	c1, c2 := randMat(rng, updateNB, updateNB), randMat(rng, updateNB, updateNB)
	for name, run := range map[string]func(){
		"Unmqr": func() { Unmqr(blas.Trans, v, tGe, c1) },
		"Tsmqr": func() { Tsmqr(blas.Trans, a, tTs, c1, c2) },
		"Ttmqr": func() { Ttmqr(blas.Trans, r2, tTt, c1, c2) },
	} {
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s nb=%d: %v allocs/op, want 0", name, updateNB, allocs)
		}
	}
}
