package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Mixed-precision level-3 routines: float32 arithmetic on float64 storage.
//
// The solver stores every tile as float64 — the precision decision is about
// where the *flops* run, not where the bytes live. Gemm32/Trsm32/Trmm32
// share their signatures with the float64 routines; internally each operand
// element is rounded to float32, every intermediate is float32, and results
// are written back as exactly-representable float32 values widened to
// float64. The f64 → f32 conversion is fused into the GEMM packing
// (pack32.go), so the demotion costs no separate pass, and the micro-kernel
// (microkernel32.go) retires twice the lanes per FMA of the f64 one.

// trsmRecLeaf is the order below which the recursive f32 triangular solvers
// drop to the scalar substitution kernel; above it the solve halves and the
// off-diagonal coupling runs through the packed Gemm32/Gemm32R path.
const trsmRecLeaf = 8

// Gemm32 computes C = alpha·op(A)·op(B) + beta·C in float32 arithmetic.
//
// The accumulator is a zeroed float32 scratch block padded to whole
// micro-tiles, so the kernel never needs the fringe detour of the f64 path;
// the final merge folds beta in at float32 and widens back to float64.
func Gemm32(transA, transB Transpose, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, ka := opShape(a, transA)
	kb, n := opShape(b, transB)
	if ka != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("blas: Gemm32 shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", m, ka, kb, n, c.Rows, c.Cols))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 || ka == 0 {
		scaleRows32(float32(beta), c)
		return
	}
	mr, nr := gemmMR32, gemmNR32
	mp, np := roundUp(m, mr), roundUp(n, nr)
	acc := mat.GetBuf32(mp * np)
	defer mat.PutBuf32(acc)
	gemmPacked32(transA, transB, float32(alpha), float32(beta), a, b, c, acc.Data, np, m, n, ka)
}

// gemmPacked32 is the five-loop blocked float32 driver. The kernel
// accumulates into acc, a float32 block padded to whole MR×NR micro-tiles
// (row stride ldc); each micro-tile is zeroed on its first k-block and
// merged into C — at float32, with beta folded in — right after its last
// k-block, while the tile is still cache-hot. That keeps the padded
// accumulator from costing separate zero and merge sweeps over cold memory.
// Blocking constants are shared with the f64 path — MC and NC are multiples
// of both micro-tile geometries — so every kernel call is a full micro-tile.
//
// Aliasing contract: C may alias the B operand unconditionally, and the A
// operand when n <= gemmNC. All of slab jc's packB reads complete before any
// merge writes to columns jc (packB runs per (jc, pc) and merges only fire
// on the last pc), merges touch only columns jc, and within the last k-slab
// packA of row block ic precedes the merges of row block ic while later row
// blocks are row-disjoint. With more than one jc slab, packA would re-read
// columns an earlier slab already merged — hence the gemmNC bound for A
// aliasing.
func gemmPacked32(transA, transB Transpose, alpha, beta float32, a, b, c *mat.Matrix, acc []float32, ldc, m, n, k int) {
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
			packB32(bufB.Data, dense64(b), transB, jc, pc, kc, nc, nr)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				packA32(bufA.Data, dense64(a), transA, alpha, ic, pc, mc, kc, mr)
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
							merge32(acc[off:], ldc, c, ic+ir, jc+jr, beta)
						}
					}
				}
			}
		}
	}
}

// merge32 folds one finished MR×NR accumulator micro-tile into C at
// (i0, j0): C = beta·C + tile at float32, clipped to C's live extent.
func merge32(tile []float32, ldt int, c *mat.Matrix, i0, j0 int, beta float32) {
	mi := min(gemmMR32, c.Rows-i0)
	nj := min(gemmNR32, c.Cols-j0)
	for i := 0; i < mi; i++ {
		crow := c.Data[(i0+i)*c.Stride+j0:][:nj]
		trow := tile[i*ldt:]
		switch beta {
		case 0:
			for j := range crow {
				crow[j] = float64(trow[j])
			}
		case 1:
			for j := range crow {
				crow[j] = float64(float32(crow[j]) + trow[j])
			}
		default:
			for j := range crow {
				crow[j] = float64(beta*float32(crow[j]) + trow[j])
			}
		}
	}
}

// scaleRows32 applies C = beta·C at float32.
func scaleRows32(beta float32, c *mat.Matrix) {
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
				row[j] = float64(beta * float32(row[j]))
			}
		}
	}
}

// Float32 scalar helpers over float64 storage: every read rounds to float32,
// every operation is float32, every write is a widened float32.

func Axpy32(alpha float32, x, y []float64) {
	for j := range y {
		y[j] = float64(float32(y[j]) + alpha*float32(x[j]))
	}
}

func Dot32(x, y []float64) float32 {
	var s float32
	for j := range x {
		s += float32(x[j]) * float32(y[j])
	}
	return s
}

func Scal32(alpha float32, x []float64) {
	for j := range x {
		x[j] = float64(alpha * float32(x[j]))
	}
}

// Trsm32 solves op(T)·X = alpha·B (Side == Left) or X·op(T) = alpha·B
// (Side == Right) in place at float32. The solve recurses on halves of T —
// solve one half, fold the off-diagonal coupling into the other with a
// single order-n/2 packed Gemm32, solve the remainder — dropping to the
// scalar substitution kernel at order trsmRecLeaf. Halving keeps the
// couplings as a few large GEMMs instead of many thin triBlock strips, so
// nearly all flops run through the f32 micro-kernel.
func Trsm32(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32 with non-square T %dx%d", t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm32 Left shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: Trsm32 Right shape mismatch T=%d B=%dx%d", n, b.Rows, b.Cols))
	}
	if alpha != 1 {
		a32 := float32(alpha)
		for i := 0; i < b.Rows; i++ {
			Scal32(a32, b.Row(i))
		}
	}
	trsmRec32(side, uplo, trans, diag, t, b)
}

// trsmRec32 is the recursive alpha-free body of Trsm32.
func trsmRec32(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix) {
	n := t.Rows
	if n <= trsmRecLeaf {
		trsmBasic32(side, uplo, trans, diag, t, b)
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
			trsmRec32(side, uplo, trans, diag, t11, b1)
			if trans == NoTrans {
				Gemm32(NoTrans, NoTrans, -1, t.View(n1, 0, n2, n1), b1, 1, b2)
			} else {
				Gemm32(Trans, NoTrans, -1, t.View(0, n1, n1, n2), b1, 1, b2)
			}
			trsmRec32(side, uplo, trans, diag, t22, b2)
		} else {
			trsmRec32(side, uplo, trans, diag, t22, b2)
			if trans == NoTrans {
				Gemm32(NoTrans, NoTrans, -1, t.View(0, n1, n1, n2), b2, 1, b1)
			} else {
				Gemm32(Trans, NoTrans, -1, t.View(n1, 0, n2, n1), b2, 1, b1)
			}
			trsmRec32(side, uplo, trans, diag, t11, b1)
		}
		return
	}
	m := b.Rows
	b1 := b.View(0, 0, m, n1)
	b2 := b.View(0, n1, m, n2)
	if effLower {
		trsmRec32(side, uplo, trans, diag, t22, b2)
		if trans == NoTrans {
			Gemm32(NoTrans, NoTrans, -1, b2, t.View(n1, 0, n2, n1), 1, b1)
		} else {
			Gemm32(NoTrans, Trans, -1, b2, t.View(0, n1, n1, n2), 1, b1)
		}
		trsmRec32(side, uplo, trans, diag, t11, b1)
	} else {
		trsmRec32(side, uplo, trans, diag, t11, b1)
		if trans == NoTrans {
			Gemm32(NoTrans, NoTrans, -1, b1, t.View(0, n1, n1, n2), 1, b2)
		} else {
			Gemm32(NoTrans, Trans, -1, b1, t.View(n1, 0, n2, n1), 1, b2)
		}
		trsmRec32(side, uplo, trans, diag, t22, b2)
	}
}

// trsmBasic32 is the unblocked float32 substitution kernel behind Trsm32.
func trsmBasic32(side Side, uplo Uplo, trans Transpose, diag Diag, t, b *mat.Matrix) {
	n := t.Rows
	lower := uplo == Lower
	if trans == Trans {
		lower = !lower
	}
	get := func(i, j int) float32 {
		if trans == Trans {
			return float32(t.At(j, i))
		}
		return float32(t.At(i, j))
	}

	if side == Left {
		if lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				for p := 0; p < i; p++ {
					Axpy32(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32(1/get(i, i), bi)
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				for p := i + 1; p < n; p++ {
					Axpy32(-get(i, p), b.Row(p), bi)
				}
				if diag == NonUnit {
					Scal32(1/get(i, i), bi)
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
						row[p] = float64(float32(row[p]) / float32(t.At(p, p)))
					}
					if v := float32(row[p]); v != 0 {
						Axpy32(-v, t.Row(p)[:p], row[:p])
					}
				}
			} else {
				for p := 0; p < n; p++ {
					if diag == NonUnit {
						row[p] = float64(float32(row[p]) / float32(t.At(p, p)))
					}
					if v := float32(row[p]); v != 0 {
						Axpy32(-v, t.Row(p)[p+1:n], row[p+1:n])
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
				s := float32(row[j]) - Dot32(row[j+1:n], t.Row(j)[j+1:n])
				if diag == NonUnit {
					s /= float32(t.At(j, j))
				}
				row[j] = float64(s)
			}
		} else {
			for j := 0; j < n; j++ {
				s := float32(row[j]) - Dot32(row[:j], t.Row(j)[:j])
				if diag == NonUnit {
					s /= float32(t.At(j, j))
				}
				row[j] = float64(s)
			}
		}
	}
}
