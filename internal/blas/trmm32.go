package blas

import (
	"fmt"

	"luqr/internal/mat"
)

// Packed triangle-aware float32 TRMM: the float32 mirror of trmm.go.
//
// The driver is written once over the storage element, so the converting
// Trmm32/TrmmAdd32 (float32 arithmetic on float64 storage) and the resident
// Trmm32R/TrmmAdd32R (float32 storage) are one code path and bit-identical
// by construction: operands are rounded to float32 as they are packed (a
// no-op on float32 storage, exact on the widened float32 values the
// residency layer keeps in float64 storage), every product runs in the
// float32 micro-kernel, and results are widened as they are written.
//
// The design is the float64 one (DESIGN.md §7): op(T) is packed straight
// from its stored triangle into gemmMR32-tall (Left) or gemmNR32-wide
// (Right) micro-panels with alpha folded in, each micro-kernel call is
// trimmed to its panel's nonzero k-range, and the diagonal micro-block
// carries explicit zeros off the triangle and an exact 1 on a Unit
// diagonal, so neither the unstored triangle nor a Unit diagonal of T is
// ever read. The float32 kernel writes full micro-tiles, so fringe tiles,
// and every tile on float64 storage, pass through an MR×NR scratch tile
// (microTile32).
//
// Aliasing contract: as for Trmm, a whole column slab (Left) or row block
// (Right) of B is packed before C is written, so C may be B; for the
// accumulating forms B and C must not overlap.

// opView returns the stored block of d whose op() is
// op(D)[r0:r0+rows, c0:c0+cols].
func (d dense[E]) opView(trans Transpose, r0, c0, rows, cols int) dense[E] {
	if trans == Trans {
		return d.view(c0, r0, cols, rows)
	}
	return d.view(r0, c0, rows, cols)
}

// Trmm32 computes B = alpha·op(T)·B (Side == Left) or B = alpha·B·op(T)
// (Side == Right) in place at float32 on float64 storage, reading only the
// stored triangle of T (and not its diagonal when diag is Unit).
func Trmm32(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	tt, bb := dense64(t), dense64(b)
	checkTrmm32("Trmm32", side, tt, bb, bb)
	trmm32(side, uplo, trans, diag, alpha, tt, bb, bb, false, gemmAdd32)
}

// TrmmAdd32 computes C += alpha·op(T)·B (Side == Left) or
// C += alpha·B·op(T) (Side == Right) at float32 on float64 storage. B and C
// have the same shape and must not overlap.
func TrmmAdd32(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix) {
	tt, bb, cc := dense64(t), dense64(b), dense64(c)
	checkTrmm32("TrmmAdd32", side, tt, bb, cc)
	trmm32(side, uplo, trans, diag, alpha, tt, bb, cc, true, gemmAdd32)
}

// Trmm32R is Trmm32 on float32 storage.
func Trmm32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix32) {
	tt, bb := dense32(t), dense32(b)
	checkTrmm32("Trmm32R", side, tt, bb, bb)
	trmm32(side, uplo, trans, diag, alpha, tt, bb, bb, false, gemmAdd32R)
}

// TrmmAdd32R is TrmmAdd32 on float32 storage.
func TrmmAdd32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b, c *mat.Matrix32) {
	tt, bb, cc := dense32(t), dense32(b), dense32(c)
	checkTrmm32("TrmmAdd32R", side, tt, bb, cc)
	trmm32(side, uplo, trans, diag, alpha, tt, bb, cc, true, gemmAdd32R)
}

// gemmAdd32 and gemmAdd32R compute C += alpha·op(A)·op(B) through the
// float32 GEMM of their storage type: the coupling updates between the
// diagonal blocks of a TRMM of order above gemmKC.
func gemmAdd32(transA, transB Transpose, alpha float64, a, b, c dense[float64]) {
	ma := mat.Matrix{Rows: a.rows, Cols: a.cols, Stride: a.stride, Data: a.data}
	mb := mat.Matrix{Rows: b.rows, Cols: b.cols, Stride: b.stride, Data: b.data}
	mc := mat.Matrix{Rows: c.rows, Cols: c.cols, Stride: c.stride, Data: c.data}
	Gemm32(transA, transB, alpha, &ma, &mb, 1, &mc)
}

func gemmAdd32R(transA, transB Transpose, alpha float64, a, b, c dense[float32]) {
	ma := mat.Matrix32{Rows: a.rows, Cols: a.cols, Stride: a.stride, Data: a.data}
	mb := mat.Matrix32{Rows: b.rows, Cols: b.cols, Stride: b.stride, Data: b.data}
	mc := mat.Matrix32{Rows: c.rows, Cols: c.cols, Stride: c.stride, Data: c.data}
	Gemm32R(transA, transB, alpha, &ma, &mb, 1, &mc)
}

func checkTrmm32[E float32 | float64](name string, side Side, t, b, c dense[E]) {
	n := t.rows
	if t.cols != n {
		panic(fmt.Sprintf("blas: %s with non-square T %dx%d", name, t.rows, t.cols))
	}
	if side == Left && b.rows != n {
		panic(fmt.Sprintf("blas: %s Left shape mismatch T=%d B=%dx%d", name, n, b.rows, b.cols))
	}
	if side == Right && b.cols != n {
		panic(fmt.Sprintf("blas: %s Right shape mismatch T=%d B=%dx%d", name, n, b.rows, b.cols))
	}
	if c.rows != b.rows || c.cols != b.cols {
		panic(fmt.Sprintf("blas: %s C=%dx%d does not match B=%dx%d", name, c.rows, c.cols, b.rows, b.cols))
	}
}

// trmm32 computes C = alpha·op(T)·B (or the Right mirror), or C += … when
// acc. Orders up to gemmKC run as one packed pass; larger ones are blocked
// into gemmKC-order diagonal blocks, each a packed pass, with the coupling
// between blocks applied by gemm — in the block order of trmm, which keeps
// the rows (Left) or columns (Right) of B a coupling reads unmodified until
// it has read them when C is B.
func trmm32[E float32 | float64](side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b, c dense[E], acc bool,
	gemm func(transA, transB Transpose, alpha float64, a, b, c dense[E])) {
	n := t.rows
	if n == 0 || b.rows == 0 || b.cols == 0 {
		return
	}
	upper := (uplo == Upper) != (trans == Trans) // orientation of op(T)
	if n <= gemmKC {
		if side == Left {
			trmmLeftPacked32(upper, trans, diag, float32(alpha), t, b, c, acc)
		} else {
			trmmRightPacked32(upper, trans, diag, float32(alpha), t, b, c, acc)
		}
		return
	}
	const bs = gemmKC
	nblk := (n + bs - 1) / bs
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
		tii := t.view(i0, i0, w, w)
		if side == Left {
			k := b.cols
			ci := c.view(i0, 0, w, k)
			trmm32(Left, uplo, trans, diag, alpha, tii, b.view(i0, 0, w, k), ci, acc, gemm)
			if hi > lo {
				gemm(trans, NoTrans, alpha, t.opView(trans, i0, lo, w, hi-lo), b.view(lo, 0, hi-lo, k), ci)
			}
			continue
		}
		m := b.rows
		cj := c.view(0, i0, m, w)
		trmm32(Right, uplo, trans, diag, alpha, tii, b.view(0, i0, m, w), cj, acc, gemm)
		if hi > lo {
			gemm(NoTrans, trans, alpha, b.view(0, lo, m, hi-lo), t.opView(trans, lo, i0, hi-lo, w), cj)
		}
	}
}

// trmmLeftPacked32 is the Left packed pass for n ≤ gemmKC: op(T) is packed
// once into MR-tall panels (alpha folded in), then each column slab of B is
// packed in full before the same slab of C is written tile by tile over the
// trimmed k-ranges.
func trmmLeftPacked32[E float32 | float64](upper bool, trans Transpose, diag Diag, alpha float32, t, b, c dense[E], acc bool) {
	n, k := t.rows, b.cols
	mr, nr := gemmMR32, gemmNR32
	tsz := roundUp(n, mr) * n
	bsz := n * min(roundUp(k, nr), gemmNC)
	buf := mat.GetBuf32(tsz + bsz + mr*nr)
	defer mat.PutBuf32(buf)
	tp, bp, tmp := buf.Data[:tsz], buf.Data[tsz:tsz+bsz], buf.Data[tsz+bsz:]
	packTriA32(tp, t, upper, trans, diag, alpha, mr)
	for jc := 0; jc < k; jc += gemmNC {
		nc := min(gemmNC, k-jc)
		packB32(bp, b, NoTrans, jc, 0, n, nc, nr)
		for jr := 0; jr < nc; jr += nr {
			nj := min(nr, nc-jr)
			for ir := 0; ir < n; ir += mr {
				k0, k1 := ir, n
				if !upper {
					k0, k1 = 0, min(ir+mr, n)
				}
				microTile32(k1-k0, tp[ir*n+k0*mr:], bp[jr*n+k0*nr:], tmp, c, ir, jc+jr, min(mr, n-ir), nj, acc)
			}
		}
	}
}

// trmmRightPacked32 is the Right packed pass for n ≤ gemmKC: op(T) is
// packed once into NR-wide panels, and each row block of B (alpha folded
// in) is packed in full before the same rows of C are written.
func trmmRightPacked32[E float32 | float64](upper bool, trans Transpose, diag Diag, alpha float32, t, b, c dense[E], acc bool) {
	m, n := b.rows, t.rows
	mr, nr := gemmMR32, gemmNR32
	tsz := roundUp(n, nr) * n
	asz := min(roundUp(m, mr), gemmMC) * n
	buf := mat.GetBuf32(tsz + asz + mr*nr)
	defer mat.PutBuf32(buf)
	tp, ap, tmp := buf.Data[:tsz], buf.Data[tsz:tsz+asz], buf.Data[tsz+asz:]
	packTriB32(tp, t, upper, trans, diag, nr)
	for ic := 0; ic < m; ic += gemmMC {
		mc := min(gemmMC, m-ic)
		packA32(ap, b, NoTrans, alpha, ic, 0, mc, n, mr)
		for jr := 0; jr < n; jr += nr {
			k0, k1 := 0, min(jr+nr, n)
			if !upper {
				k0, k1 = jr, n
			}
			nj := min(nr, n-jr)
			for ir := 0; ir < mc; ir += mr {
				microTile32(k1-k0, ap[ir*n+k0*mr:], tp[jr*n+k0*nr:], tmp, c, ic+ir, jr, min(mr, mc-ir), nj, acc)
			}
		}
	}
}

// microTile32 runs one trimmed micro-kernel call for the mi×nj tile of C
// at (i0, j0): C = sum, or C += sum when acc, where sum is the kernel's
// float32 accumulation. On float32 storage a full tile is accumulated in
// place (cleared first unless acc); otherwise the tile goes through the
// MR×NR scratch tmp, loaded from C (acc) or cleared, and is stored back
// widened to E. Both routes add the kernel's sum onto the same float32
// start value, so they agree bit for bit.
func microTile32[E float32 | float64](kc int, a, b, tmp []float32, c dense[E], i0, j0, mi, nj int, acc bool) {
	mr, nr := gemmMR32, gemmNR32
	off := i0*c.stride + j0
	if c32, ok := any(c.data).([]float32); ok && mi == mr && nj == nr {
		if !acc {
			for i := 0; i < mr; i++ {
				clear(c32[off+i*c.stride:][:nr])
			}
		}
		gemmKernel32(kc, a, b, c32[off:], c.stride)
		return
	}
	clear(tmp)
	if acc {
		for i := 0; i < mi; i++ {
			for j, v := range c.data[off+i*c.stride:][:nj] {
				tmp[i*nr+j] = float32(v)
			}
		}
	}
	gemmKernel32(kc, a, b, tmp, nr)
	for i := 0; i < mi; i++ {
		crow := c.data[off+i*c.stride:][:nj]
		for j, v := range tmp[i*nr:][:nj] {
			crow[j] = E(v)
		}
	}
}

// packTriA32 packs alpha·op(T) into MR-tall float32 micro-panels of full
// length n: element (r0+i, p) lands at buf[r0*n + p*mr + i]. Only each
// panel's nonzero k-range is written — the dense part through packA32, the
// diagonal micro-block element by element.
func packTriA32[E float32 | float64](buf []float32, t dense[E], upper bool, trans Transpose, diag Diag, alpha float32, mr int) {
	n := t.rows
	for r0 := 0; r0 < n; r0 += mr {
		rows := min(mr, n-r0)
		panel := buf[r0*n:]
		d1 := min(r0+mr, n) // the diagonal micro-block is k ∈ [r0, d1)
		if upper && d1 < n {
			packA32(panel[d1*mr:], t, trans, alpha, r0, d1, rows, n-d1, mr)
		}
		if !upper && r0 > 0 {
			packA32(panel, t, trans, alpha, r0, 0, rows, r0, mr)
		}
		for p := r0; p < d1; p++ {
			d := panel[p*mr : p*mr+mr]
			for i := range d {
				d[i] = alpha * triAt32(t, upper, trans, diag, r0+i, p)
			}
		}
	}
}

// packTriB32 packs op(T) into NR-wide float32 micro-panels of full length
// n: element (p, c0+j) lands at buf[c0*n + p*nr + j]. Only each panel's
// nonzero k-range is written — the dense part through packB32, the
// diagonal micro-block element by element.
func packTriB32[E float32 | float64](buf []float32, t dense[E], upper bool, trans Transpose, diag Diag, nr int) {
	n := t.rows
	for c0 := 0; c0 < n; c0 += nr {
		cols := min(nr, n-c0)
		panel := buf[c0*n:]
		d1 := min(c0+nr, n) // the diagonal micro-block is k ∈ [c0, d1)
		if upper && c0 > 0 {
			packB32(panel, t, trans, c0, 0, c0, cols, nr)
		}
		if !upper && d1 < n {
			packB32(panel[d1*nr:], t, trans, c0, d1, n-d1, cols, nr)
		}
		for p := c0; p < d1; p++ {
			d := panel[p*nr : p*nr+nr]
			for j := range d {
				d[j] = triAt32(t, upper, trans, diag, p, c0+j)
			}
		}
	}
}

// triAt32 returns op(T)[i, j] at float32 for a diagonal micro-block entry:
// zero outside the matrix or off op(T)'s triangle, 1 on a Unit diagonal,
// and otherwise the stored element — the only case that reads t.
func triAt32[E float32 | float64](t dense[E], upper bool, trans Transpose, diag Diag, i, j int) float32 {
	n := t.rows
	switch {
	case i >= n || j >= n || (upper && i > j) || (!upper && i < j):
		return 0
	case i == j && diag == Unit:
		return 1
	case trans == Trans:
		return float32(t.data[j*t.stride+i])
	}
	return float32(t.data[i*t.stride+j])
}
