package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Gemm computes C = alpha·op(A)·op(B) + beta·C.
//
// All four transpose variants run through the same BLIS-style packed path:
// operands are repacked into micro-panels in the exact order the register-
// blocked micro-kernel consumes (pack.go, microkernel.go), with the
// transposes absorbed by the packing. Workspace comes from the mat arena,
// so steady-state calls perform no heap allocation.
func Gemm(transA, transB Transpose, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, ka := opShape(a, transA)
	kb, n := opShape(b, transB)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, c.Rows, c.Cols))
	}
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c.Row(i)
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || ka == 0 || m == 0 || n == 0 {
		return
	}
	gemmPacked(transA, transB, alpha, a, b, c, m, n, ka)
}

// gemmPacked is the five-loop blocked driver around the micro-kernel. See
// pack.go for the blocking scheme.
func gemmPacked(transA, transB Transpose, alpha float64, a, b, c *mat.Matrix, m, n, k int) {
	mr, nr := gemmMR, gemmNR
	kcMax := min(k, gemmKC)
	mcMax := min(roundUp(m, mr), gemmMC)
	ncMax := min(roundUp(n, nr), gemmNC)

	bufB := mat.GetBuf(kcMax * ncMax)
	defer mat.PutBuf(bufB)
	// One buffer carries the packed A block plus the MR×NR scratch tile the
	// fringe path accumulates into.
	bufA := mat.GetBuf(mcMax*kcMax + mr*nr)
	defer mat.PutBuf(bufA)
	apack := bufA.Data[:mcMax*kcMax]
	tmp := bufA.Data[mcMax*kcMax:]

	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(bufB.Data, b, transB, jc, pc, kc, nc, nr)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA(apack, a, transA, alpha, ic, pc, mc, kc, mr)
				for jr := 0; jr < nc; jr += nr {
					nj := min(nr, nc-jr)
					bp := bufB.Data[jr*kc:]
					for ir := 0; ir < mc; ir += mr {
						mi := min(mr, mc-ir)
						microTile(kc, apack[ir*kc:], bp, c, ic+ir, jc+jr, mi, nj, tmp)
					}
				}
			}
		}
	}
}

// microTile runs the micro-kernel on the MR×NR tile of C at (i0, j0), of
// which the leading mi×nj part is live: C[i0:i0+mi, j0:j0+nj] += Ap·Bp over
// kc packed columns. Full tiles are written in place; fringe tiles compute
// the padded micro-tile into the MR×NR scratch tmp and add back the live
// part.
func microTile(kc int, ap, bp []float64, c *mat.Matrix, i0, j0, mi, nj int, tmp []float64) {
	mr, nr := gemmMR, gemmNR
	if mi == mr && nj == nr {
		gemmKernel(kc, ap, bp, c.Data[i0*c.Stride+j0:], c.Stride)
		return
	}
	for z := range tmp {
		tmp[z] = 0
	}
	gemmKernel(kc, ap, bp, tmp, nr)
	for i := 0; i < mi; i++ {
		crow := c.Data[(i0+i)*c.Stride+j0:][:nj]
		trow := tmp[i*nr:]
		for j := range crow {
			crow[j] += trow[j]
		}
	}
}

func opShape(m *mat.Matrix, t Transpose) (rows, cols int) {
	if t == Trans {
		return m.Cols, m.Rows
	}
	return m.Rows, m.Cols
}

// triBlock is the diagonal-block order of the blocked triangular drivers
// (Trsm, and the float32 fallbacks). Only a triBlock-wide band of the work
// runs through the unblocked substitution loops; everything off the
// diagonal is a rank-triBlock GEMM update through the packed micro-kernel
// path, so a large triangular solve runs at a large fraction of GEMM speed.
const triBlock = 32

// Trsm solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place: B is overwritten with X. T is triangular as
// described by uplo/diag.
//
// The solve is blocked: the triangle is partitioned into triBlock-order
// diagonal blocks solved by forward/back substitution, and the coupling
// between blocks is applied as GEMM updates, so most flops run through the
// packed micro-kernel path.
func Trsm(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trsm with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trsm Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if alpha != 1 {
		for i := 0; i < b.Rows; i++ {
			Scal(alpha, b.Row(i))
		}
	}
	if n <= triBlock {
		trsmBasic(side, uplo, trans, diag, t, b)
		return
	}
	// Effective orientation of op(T): a transposed triangle lives on the
	// opposite side of the diagonal.
	effLower := (uplo == Lower) != (trans == Trans)
	if side == Left {
		// Block rows of X in dependency order: forward when op(T) is lower,
		// backward when upper. Each block first subtracts the coupling with
		// the already-solved blocks (one GEMM), then solves its diagonal
		// block by substitution.
		k := b.Cols
		if effLower {
			for i0 := 0; i0 < n; i0 += triBlock {
				bs := min(triBlock, n-i0)
				bi := b.View(i0, 0, bs, k)
				if i0 > 0 {
					if trans == NoTrans {
						Gemm(NoTrans, NoTrans, -1, t.View(i0, 0, bs, i0), b.View(0, 0, i0, k), 1, bi)
					} else {
						Gemm(Trans, NoTrans, -1, t.View(0, i0, i0, bs), b.View(0, 0, i0, k), 1, bi)
					}
				}
				trsmBasic(Left, uplo, trans, diag, t.View(i0, i0, bs, bs), bi)
			}
			return
		}
		for i0 := ((n - 1) / triBlock) * triBlock; i0 >= 0; i0 -= triBlock {
			bs := min(triBlock, n-i0)
			bi := b.View(i0, 0, bs, k)
			if rest := n - i0 - bs; rest > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, -1, t.View(i0, i0+bs, bs, rest), b.View(i0+bs, 0, rest, k), 1, bi)
				} else {
					Gemm(Trans, NoTrans, -1, t.View(i0+bs, i0, rest, bs), b.View(i0+bs, 0, rest, k), 1, bi)
				}
			}
			trsmBasic(Left, uplo, trans, diag, t.View(i0, i0, bs, bs), bi)
		}
		return
	}
	// Right side: column blocks of X in dependency order — forward when
	// op(T) is upper, backward when lower.
	m := b.Rows
	if !effLower {
		for j0 := 0; j0 < n; j0 += triBlock {
			bs := min(triBlock, n-j0)
			bj := b.View(0, j0, m, bs)
			if j0 > 0 {
				if trans == NoTrans {
					Gemm(NoTrans, NoTrans, -1, b.View(0, 0, m, j0), t.View(0, j0, j0, bs), 1, bj)
				} else {
					Gemm(NoTrans, Trans, -1, b.View(0, 0, m, j0), t.View(j0, 0, bs, j0), 1, bj)
				}
			}
			trsmBasic(Right, uplo, trans, diag, t.View(j0, j0, bs, bs), bj)
		}
		return
	}
	for j0 := ((n - 1) / triBlock) * triBlock; j0 >= 0; j0 -= triBlock {
		bs := min(triBlock, n-j0)
		bj := b.View(0, j0, m, bs)
		if rest := n - j0 - bs; rest > 0 {
			if trans == NoTrans {
				Gemm(NoTrans, NoTrans, -1, b.View(0, j0+bs, m, rest), t.View(j0+bs, j0, rest, bs), 1, bj)
			} else {
				Gemm(NoTrans, Trans, -1, b.View(0, j0+bs, m, rest), t.View(j0, j0+bs, bs, rest), 1, bj)
			}
		}
		trsmBasic(Right, uplo, trans, diag, t.View(j0, j0, bs, bs), bj)
	}
}

// trsmBasic is the unblocked substitution kernel behind Trsm: it solves one
// diagonal block (alpha already applied by the caller).
func trsmBasic(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix) {
	n := t.Rows
	// Reduce the transposed cases to the non-transposed triangle on the
	// opposite side of the diagonal; element access goes through get().
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float64 {
		if trans == Trans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}

	if side == Left {
		// Row-oriented forward/back substitution over the rows of B: each
		// step updates a whole row with unit stride.
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal(1/get(i, i), bi)
				}
			}
		}
		return
	}

	// Right side: X·op(T) = B, solved one row of B at a time. For the
	// untransposed cases the substitution is expressed with T's rows so the
	// inner loops run over contiguous memory (this is the hot "Eliminate"
	// path of the LU step: A_ik ← A_ik·U⁻¹).
	if trans == NoTrans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for p := n - 1; p >= 0; p-- {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] /= t.At(p, p)
					}
					if v := row[p]; v != 0 {
						Axpy(-v, t.Row(p)[p+1:n], row[p+1:n])
					}
				}
			}
		}
		return
	}
	// Transposed right side: op(T)[p, j] = t[j, p], so each x_j is a dot
	// product against the contiguous row j of t.
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		if lower {
			// op(T) lower ⇒ t upper: x_j from last to first.
			for j := n - 1; j >= 0; j-- {
				s := row[j] - Dot(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		} else {
			for j := 0; j < n; j++ {
				s := row[j] - Dot(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= t.At(j, j)
				}
				row[j] = s
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
