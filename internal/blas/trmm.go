package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Packed triangle-aware TRMM.
//
// A triangular multiply is a GEMM whose A (Left) or B (Right) operand is
// half zeros. Instead of blocking the triangle into thin diagonal strips,
// the drivers below pack op(T) straight from its stored triangle into the
// micro-panel layout the GEMM micro-kernel consumes, and trim every
// micro-kernel call to the panel's nonzero k-range:
//
//	Left,  op(T) upper: row panel [r0, r0+MR) spans k ∈ [r0, n)
//	Left,  op(T) lower: row panel [r0, r0+MR) spans k ∈ [0, min(r0+MR, n))
//	Right, op(T) upper: column panel [c0, c0+NR) spans k ∈ [0, min(c0+NR, n))
//	Right, op(T) lower: column panel [c0, c0+NR) spans k ∈ [c0, n)
//
// so the n²·w multiply-adds of a TRMM retire at micro-kernel rate instead
// of the 2·n²·w a dense GEMM on the materialized triangle would spend. Each
// panel's k-range is the only part of its packed storage that is written
// and read; its diagonal micro-block carries explicit zeros off the
// triangle and an exact 1 (times alpha) on a Unit diagonal, so neither the
// unstored triangle nor a Unit diagonal of T is ever read — QR factors keep
// R above V's unit diagonal in the same tile.
//
// Aliasing contract: the Left driver packs a whole column slab of B before
// it writes that slab of C, and the Right driver a whole row block of B
// before it writes those rows of C, so C may be B (Trmm is the in-place
// form). For TrmmAdd, which accumulates, B and C must not overlap.

// Trmm computes B = alpha·op(T)·B (Side == Left) or B = alpha·B·op(T)
// (Side == Right) in place, with T triangular as described by uplo/diag.
// Only the stored triangle of T is read, and not its diagonal when diag is
// Unit.
func Trmm(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	checkTrmm("Trmm", side, t, b, b)
	trmm(side, uplo, trans, diag, alpha, t, b, b, false)
}

// TrmmAdd computes C += alpha·op(T)·B (Side == Left) or C += alpha·B·op(T)
// (Side == Right), with T triangular as described by uplo/diag. B and C
// have the same shape and must not overlap. It spares the QR update
// kernels a scratch copy of B plus a separate add/subtract pass over C.
func TrmmAdd(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix) {
	checkTrmm("TrmmAdd", side, t, b, c)
	trmm(side, uplo, trans, diag, alpha, t, b, c, true)
}

func checkTrmm(name string, side Side, t, b, c *mat.Matrix) {
	n := t.Rows
	if t.Cols != n {
		panic(fmt.Sprintf("blas: %s with non-square T %dx%d", name, t.Rows, t.Cols))
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: %s Left shape mismatch T=%d B=%dx%d", name, n, b.Rows, b.Cols))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: %s Right shape mismatch T=%d B=%dx%d", name, n, b.Rows, b.Cols))
	}
	if c.Rows != b.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("blas: %s C=%dx%d does not match B=%dx%d", name, c.Rows, c.Cols, b.Rows, b.Cols))
	}
}

// trmm computes C = alpha·op(T)·B (or the Right mirror), or C += … when
// acc. Orders up to gemmKC run as one packed pass; larger ones are blocked
// into gemmKC-order diagonal blocks, each a packed pass, with the coupling
// between blocks applied as GEMM updates. In place, the blocks run in the
// order that keeps the rows (Left) or columns (Right) of B a coupling GEMM
// reads unmodified until it has read them.
func trmm(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix, acc bool) {
	n := t.Rows
	if n == 0 || b.Rows == 0 || b.Cols == 0 {
		return
	}
	upper := (uplo == Upper) != (trans == Trans) // orientation of op(T)
	if n <= gemmKC {
		if side == Left {
			trmmLeftPacked(upper, trans, diag, alpha, t, b, c, acc)
		} else {
			trmmRightPacked(upper, trans, diag, alpha, t, b, c, acc)
		}
		return
	}
	const bs = gemmKC
	nblk := (n + bs - 1) / bs
	// Left: upper top-down, lower bottom-up. Right: upper right-to-left,
	// lower left-to-right.
	reverse := (side == Left) != upper
	for s := 0; s < nblk; s++ {
		q := s
		if reverse {
			q = nblk - 1 - s
		}
		i0 := q * bs
		w := min(bs, n-i0)
		lo, hi := 0, i0 // coupled index range of op(T) outside the block
		if (side == Left) == upper {
			lo, hi = i0+w, n
		}
		tii := t.View(i0, i0, w, w)
		if side == Left {
			k := b.Cols
			ci := c.View(i0, 0, w, k)
			trmm(Left, uplo, trans, diag, alpha, tii, b.View(i0, 0, w, k), ci, acc)
			if hi > lo {
				Gemm(trans, NoTrans, alpha, opView(t, trans, i0, lo, w, hi-lo), b.View(lo, 0, hi-lo, k), 1, ci)
			}
			continue
		}
		m := b.Rows
		cj := c.View(0, i0, m, w)
		trmm(Right, uplo, trans, diag, alpha, tii, b.View(0, i0, m, w), cj, acc)
		if hi > lo {
			Gemm(NoTrans, trans, alpha, b.View(0, lo, m, hi-lo), opView(t, trans, lo, i0, hi-lo, w), 1, cj)
		}
	}
}

// opView returns the stored block of t whose op() is
// op(T)[r0:r0+rows, c0:c0+cols].
func opView(t *mat.Matrix, trans Transpose, r0, c0, rows, cols int) *mat.Matrix {
	if trans == Trans {
		return t.View(c0, r0, cols, rows)
	}
	return t.View(r0, c0, rows, cols)
}

// trmmLeftPacked is the Left packed pass for n ≤ gemmKC: op(T) is packed
// once into MR-tall panels (alpha folded in), then each column slab of B is
// packed in full before the same slab of C is cleared (unless acc) and
// accumulated tile by tile over the trimmed k-ranges.
func trmmLeftPacked(upper bool, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix, acc bool) {
	n, k := t.Rows, b.Cols
	mr, nr := gemmMR, gemmNR
	tsz := roundUp(n, mr) * n
	bsz := n * min(roundUp(k, nr), gemmNC)
	buf := mat.GetBuf(tsz + bsz + mr*nr)
	defer mat.PutBuf(buf)
	tp, bp, tmp := buf.Data[:tsz], buf.Data[tsz:tsz+bsz], buf.Data[tsz+bsz:]
	packTriA(tp, t, upper, trans, diag, alpha, mr)
	for jc := 0; jc < k; jc += gemmNC {
		nc := min(gemmNC, k-jc)
		packB(bp, b, NoTrans, jc, 0, n, nc, nr)
		if !acc {
			zeroBlock(c, 0, jc, n, nc)
		}
		for jr := 0; jr < nc; jr += nr {
			nj := min(nr, nc-jr)
			for ir := 0; ir < n; ir += mr {
				k0, k1 := ir, n
				if !upper {
					k0, k1 = 0, min(ir+mr, n)
				}
				microTile(k1-k0, tp[ir*n+k0*mr:], bp[jr*n+k0*nr:], c, ir, jc+jr, min(mr, n-ir), nj, tmp)
			}
		}
	}
}

// trmmRightPacked is the Right packed pass for n ≤ gemmKC, the Left pass
// with the operand roles swapped: op(T) is packed once into NR-wide panels,
// and each row block of B (alpha folded in) is packed in full before the
// same rows of C are cleared (unless acc) and accumulated.
func trmmRightPacked(upper bool, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix, acc bool) {
	m, n := b.Rows, t.Rows
	mr, nr := gemmMR, gemmNR
	tsz := roundUp(n, nr) * n
	asz := min(roundUp(m, mr), gemmMC) * n
	buf := mat.GetBuf(tsz + asz + mr*nr)
	defer mat.PutBuf(buf)
	tp, ap, tmp := buf.Data[:tsz], buf.Data[tsz:tsz+asz], buf.Data[tsz+asz:]
	packTriB(tp, t, upper, trans, diag, nr)
	for ic := 0; ic < m; ic += gemmMC {
		mc := min(gemmMC, m-ic)
		packA(ap, b, NoTrans, alpha, ic, 0, mc, n, mr)
		if !acc {
			zeroBlock(c, ic, 0, mc, n)
		}
		for jr := 0; jr < n; jr += nr {
			k0, k1 := 0, min(jr+nr, n)
			if !upper {
				k0, k1 = jr, n
			}
			nj := min(nr, n-jr)
			for ir := 0; ir < mc; ir += mr {
				microTile(k1-k0, ap[ir*n+k0*mr:], tp[jr*n+k0*nr:], c, ic+ir, jr, min(mr, mc-ir), nj, tmp)
			}
		}
	}
}

// packTriA packs alpha·op(T) into MR-tall micro-panels of full length n:
// element (r0+i, p) lands at buf[r0*n + p*mr + i]. Only each panel's
// nonzero k-range is written — the dense part through packA, the diagonal
// micro-block element by element.
func packTriA(buf []float64, t *mat.Matrix, upper bool, trans Transpose, diag Diag, alpha float64, mr int) {
	n := t.Rows
	for r0 := 0; r0 < n; r0 += mr {
		rows := min(mr, n-r0)
		panel := buf[r0*n:]
		d1 := min(r0+mr, n) // the diagonal micro-block is k ∈ [r0, d1)
		if upper && d1 < n {
			packA(panel[d1*mr:], t, trans, alpha, r0, d1, rows, n-d1, mr)
		}
		if !upper && r0 > 0 {
			packA(panel, t, trans, alpha, r0, 0, rows, r0, mr)
		}
		for p := r0; p < d1; p++ {
			d := panel[p*mr : p*mr+mr]
			for i := range d {
				d[i] = alpha * triAt(t, upper, trans, diag, r0+i, p)
			}
		}
	}
}

// packTriB packs op(T) into NR-wide micro-panels of full length n: element
// (p, c0+j) lands at buf[c0*n + p*nr + j]. Only each panel's nonzero
// k-range is written — the dense part through packB, the diagonal
// micro-block element by element.
func packTriB(buf []float64, t *mat.Matrix, upper bool, trans Transpose, diag Diag, nr int) {
	n := t.Rows
	for c0 := 0; c0 < n; c0 += nr {
		cols := min(nr, n-c0)
		panel := buf[c0*n:]
		d1 := min(c0+nr, n) // the diagonal micro-block is k ∈ [c0, d1)
		if upper && c0 > 0 {
			packB(panel, t, trans, c0, 0, c0, cols, nr)
		}
		if !upper && d1 < n {
			packB(panel[d1*nr:], t, trans, c0, d1, n-d1, cols, nr)
		}
		for p := c0; p < d1; p++ {
			d := panel[p*nr : p*nr+nr]
			for j := range d {
				d[j] = triAt(t, upper, trans, diag, p, c0+j)
			}
		}
	}
}

// triAt returns op(T)[i, j] for a diagonal micro-block entry: zero outside
// the matrix or off op(T)'s triangle, 1 on a Unit diagonal, and otherwise
// the stored element — the only case that reads t.
func triAt(t *mat.Matrix, upper bool, trans Transpose, diag Diag, i, j int) float64 {
	n := t.Rows
	switch {
	case i >= n || j >= n || (upper && i > j) || (!upper && i < j):
		return 0
	case i == j && diag == Unit:
		return 1
	case trans == Trans:
		return t.Data[j*t.Stride+i]
	}
	return t.Data[i*t.Stride+j]
}

// zeroBlock clears the rows×cols block of c at (i0, j0).
func zeroBlock(c *mat.Matrix, i0, j0, rows, cols int) {
	for i := i0; i < i0+rows; i++ {
		clear(c.Data[i*c.Stride+j0:][:cols])
	}
}
