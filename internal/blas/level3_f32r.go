package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Resident mixed-precision level-3 routines: float32 arithmetic on float32
// storage.
//
// Gemm32R/Trsm32R are the conversion-free siblings of Gemm32/Trsm32 (the
// float32 TRMM pair shares one driver, trmm32.go): same blocking, same
// micro-kernel, same operation order — the only difference is that operands
// are mat.Matrix32 tile images, so packing is a pure copy instead of a fused
// f64→f32 conversion and the merge writes float32 directly instead of
// widening. Because float32 widens to float64 exactly, a resident kernel
// chain produces bit-identical values to the round-on-read/widen-on-write
// chain on float64 storage; the residency layer (package tile) relies on
// that identity to convert tiles once per precision epoch instead of once
// per call.

// opShape32 returns (rows, cols) of op(A).
func opShape32(a *mat.Matrix32, trans Transpose) (int, int) {
	if trans == NoTrans {
		return a.Rows, a.Cols
	}
	return a.Cols, a.Rows
}

// Gemm32R computes C = alpha·op(A)·op(B) + beta·C on float32 storage. Same
// padded-accumulator driver as Gemm32; results are bit-identical to Gemm32
// over float64 storage holding the same (widened) values.
func Gemm32R(transA, transB Transpose, alpha float64, a, b *mat.Matrix32, beta float64, c *mat.Matrix32) {
	m, ka := opShape32(a, transA)
	kb, n := opShape32(b, transB)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm32R shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, c.Rows, c.Cols))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || ka == 0 {
		scaleRows32R(float32(beta), c)
		return
	}
	mr, nr := gemmMR32, gemmNR32
	mp, np := roundUp(m, mr), roundUp(n, nr)
	acc := mat.GetBuf32(mp * np)
	defer mat.PutBuf32(acc)
	gemmPacked32R(transA, transB, float32(alpha), float32(beta), a, b, c, acc.Data, np, m, n, ka)
}

// gemmPacked32R is gemmPacked32 over float32 storage: identical five-loop
// blocking, zero-on-first / merge-on-last accumulator discipline, and
// micro-kernel. It inherits gemmPacked32's aliasing contract: C may alias
// the B operand unconditionally, and the A operand when n <= gemmNC.
func gemmPacked32R(transA, transB Transpose, alpha, beta float32, a, b, c *mat.Matrix32, acc []float32, ldc, m, n, k int) {
	mr, nr := gemmMR32, gemmNR32
	kcMax := min(k, gemmKC)
	mcMax := min(roundUp(m, mr), gemmMC)
	ncMax := min(roundUp(n, nr), gemmNC)

	bufB := mat.GetBuf32(kcMax * ncMax)
	defer mat.PutBuf32(bufB)
	bufA := mat.GetBuf32(mcMax * kcMax)
	defer mat.PutBuf32(bufA)

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			first, last := pc == 0, pc+gemmKC >= k
			packB32(bufB.Data, dense32(b), transB, jc, pc, kc, nc, nr)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA32(bufA.Data, dense32(a), transA, alpha, ic, pc, mc, kc, mr)
				for jr := 0; jr < nc; jr += nr {
					bp := bufB.Data[jr*kc:]
					for ir := 0; ir < mc; ir += mr {
						off := (ic+ir)*ldc + jc + jr
						if first {
							for i := 0; i < mr; i++ {
								row := acc[off+i*ldc : off+i*ldc+nr]
								for z := range row {
									row[z] = 0
								}
							}
						}
						gemmKernel32(kc, bufA.Data[ir*kc:], bp, acc[off:], ldc)
						if last {
							merge32R(acc[off:], ldc, c, ic+ir, jc+jr, beta)
						}
					}
				}
			}
		}
	}
}

// merge32R folds one finished MR×NR accumulator micro-tile into C at
// (i0, j0): C = beta·C + tile at float32, clipped to C's live extent.
func merge32R(tile []float32, ldt int, c *mat.Matrix32, i0, j0 int, beta float32) {
	mi := min(gemmMR32, c.Rows-i0)
	nj := min(gemmNR32, c.Cols-j0)
	for i := 0; i < mi; i++ {
		crow := c.Data[(i0+i)*c.Stride+j0:][:nj]
		trow := tile[i*ldt:]
		switch beta {
		case 0:
			for j := range crow {
				crow[j] = trow[j]
			}
		case 1:
			for j := range crow {
				crow[j] += trow[j]
			}
		default:
			for j := range crow {
				crow[j] = beta*crow[j] + trow[j]
			}
		}
	}
}

// scaleRows32R applies C = beta·C.
func scaleRows32R(beta float32, c *mat.Matrix32) {
	if beta == 1 {
		return
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Row(i)
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] = beta * row[j]
			}
		}
	}
}

// Float32 scalar helpers on float32 storage — the resident counterparts of
// Axpy32/Dot32/Scal32, same operation order.

func Axpy32R(alpha float32, x, y []float32) {
	for j := range y {
		y[j] += alpha * x[j]
	}
}

func Dot32R(x, y []float32) float32 {
	var s float32
	for j := range x {
		s += x[j] * y[j]
	}
	return s
}

func Scal32R(alpha float32, x []float32) {
	for j := range x {
		x[j] = alpha * x[j]
	}
}

// Trsm32R solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place on float32 storage: same recursive halving as
// Trsm32 — identical split points, coupling GEMMs, and leaf order — so the
// two siblings stay bit-identical.
func Trsm32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix32) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32R with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm32R Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32R Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if alpha != 1 {
		a32 := float32(alpha)
		for i := 0; i < b.Rows; i++ {
			Scal32R(a32, b.Row(i))
		}
	}
	trsmRec32R(side, uplo, trans, diag, t, b)
}

// trsmRec32R is the recursive alpha-free body of Trsm32R — the exact mirror
// of trsmRec32.
func trsmRec32R(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix32) {
	n := t.Rows
	if n <= trsmRecLeaf {
		trsmBasic32R(side, uplo, trans, diag, t, b)
		return
	}
	n1 := n / 2
	n2 := n - n1
	t11 := t.View(0, 0, n1, n1)
	t22 := t.View(n1, n1, n2, n2)
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		k := b.Cols
		b1 := b.View(0, 0, n1, k)
		b2 := b.View(n1, 0, n2, k)
		if effLower {
			trsmRec32R(side, uplo, trans, diag, t11, b1)
			if trans == NoTrans {
				Gemm32R(NoTrans, NoTrans, -1, t.View(n1, 0, n2, n1), b1, 1, b2)
			} else {
				Gemm32R(Trans, NoTrans, -1, t.View(0, n1, n1, n2), b1, 1, b2)
			}
			trsmRec32R(side, uplo, trans, diag, t22, b2)
		} else {
			trsmRec32R(side, uplo, trans, diag, t22, b2)
			if trans == NoTrans {
				Gemm32R(NoTrans, NoTrans, -1, t.View(0, n1, n1, n2), b2, 1, b1)
			} else {
				Gemm32R(Trans, NoTrans, -1, t.View(n1, 0, n2, n1), b2, 1, b1)
			}
			trsmRec32R(side, uplo, trans, diag, t11, b1)
		}
		return
	}
	m := b.Rows
	b1 := b.View(0, 0, m, n1)
	b2 := b.View(0, n1, m, n2)
	if effLower {
		trsmRec32R(side, uplo, trans, diag, t22, b2)
		if trans == NoTrans {
			Gemm32R(NoTrans, NoTrans, -1, b2, t.View(n1, 0, n2, n1), 1, b1)
		} else {
			Gemm32R(NoTrans, Trans, -1, b2, t.View(0, n1, n1, n2), 1, b1)
		}
		trsmRec32R(side, uplo, trans, diag, t11, b1)
	} else {
		trsmRec32R(side, uplo, trans, diag, t11, b1)
		if trans == NoTrans {
			Gemm32R(NoTrans, NoTrans, -1, b1, t.View(0, n1, n1, n2), 1, b2)
		} else {
			Gemm32R(NoTrans, Trans, -1, b1, t.View(n1, 0, n2, n1), 1, b2)
		}
		trsmRec32R(side, uplo, trans, diag, t22, b2)
	}
}

// trsmBasic32R is the unblocked float32 substitution kernel behind Trsm32R.
func trsmBasic32R(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix32) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float32 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}

	if side == Left {
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy32R(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32R(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy32R(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32R(1/get(i, i), bi)
				}
			}
		}
		return
	}

	if trans == NoTrans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for p := n - 1; p >= 0; p-- {
					if diag == NonUnit {
						row[p] = row[p] / t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy32R(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] = row[p] / t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy32R(-v, t.Row(p)[p+1:n], row[p+1:n])
					}
				}
			}
		}
		return
	}
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		if lower {
			for j := n - 1; j >= 0; j-- {
				s := row[j] - Dot32R(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		} else {
			for j := 0; j < n; j++ {
				s := row[j] - Dot32R(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		}
	}
}
