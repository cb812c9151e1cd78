package lapack

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Mixed-precision kernels: float32 arithmetic on float64 storage.
//
// Each routine here mirrors its float64 sibling line for line — same pivot
// semantics, same compact-WY V/T contracts, same in-place storage layout —
// with every floating-point operation performed at float32 and results
// widened back to float64. Factors produced by these kernels are therefore
// interchangeable with the f64 ones: Unmqr can replay a Geqrt32 factor, a
// Getrf32 panel feeds the same Laswp/Trsm elimination, and the serialized
// factor format does not change shape. The level-3 flops run through the
// blas float32 packed path (Gemm32/Trsm32/Trmm32), whose micro-kernel
// retires twice the lanes per FMA of the f64 one.

// abs32 is |v| at float32 resolution.
func abs32(v float64) float32 {
	f := float32(v)
	if f < 0 {
		return -f
	}
	return f
}

// Getrf32 is Getrf — LU with partial pivoting, recursive right-looking —
// at float32. The pivot search compares float32 magnitudes (the values the
// elimination will actually divide by), and a pivot that rounds to float32
// zero is a breakdown even if the stored float64 is a tiny nonzero.
func Getrf32(a *mat.Matrix) (piv []int, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Getrf32 requires m >= n, got %dx%d", m, n))
	}
	piv = make([]int, n)
	return piv, getrfRecursive32(a, piv)
}

func getrfRecursive32(a *mat.Matrix, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	if n <= getrfLeaf {
		return getrfUnblocked32(a, piv)
	}
	n1 := n / 2
	if e := getrfRecursive32(a.View(0, 0, m, n1), piv[:n1]); e != nil {
		err = e
	}
	Laswp(a.View(0, n1, m, n-n1), piv[:n1], false)
	u12 := a.View(0, n1, n1, n-n1)
	blas.Trsm32(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(0, 0, n1, n1), u12)
	blas.Gemm32(blas.NoTrans, blas.NoTrans, -1, a.View(n1, 0, m-n1, n1), u12, 1, a.View(n1, n1, m-n1, n-n1))
	if e := getrfRecursive32(a.View(n1, n1, m-n1, n-n1), piv[n1:]); e != nil {
		err = e
	}
	for j := n1; j < n; j++ {
		piv[j] += n1
		if piv[j] != j {
			r1, r2 := a.Row(j), a.Row(piv[j])
			for c := 0; c < n1; c++ {
				r1[c], r2[c] = r2[c], r1[c]
			}
		}
	}
	return err
}

// getrfUnblocked32 is getrfUnblocked at float32, with the same fused
// next-pivot search.
func getrfUnblocked32(a *mat.Matrix, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	d, ld := a.Data, a.Stride
	p, pv := 0, abs32(d[0])
	for i := 1; i < m; i++ {
		if v := abs32(d[i*ld]); v > pv {
			p, pv = i, v
		}
	}
	for k := 0; k < n; k++ {
		piv[k] = p
		if p != k {
			rk := d[k*ld : k*ld+n]
			rp := d[p*ld : p*ld+n]
			for c, v := range rk {
				rk[c], rp[c] = rp[c], v
			}
		}
		akk := float32(d[k*ld+k])
		last := k+1 == n
		if akk == 0 {
			err = ErrSingular
			if !last {
				p, pv = k+1, abs32(d[(k+1)*ld+k+1])
				for i := k + 2; i < m; i++ {
					if v := abs32(d[i*ld+k+1]); v > pv {
						p, pv = i, v
					}
				}
			}
			continue
		}
		inv := 1 / akk
		rowk := d[k*ld+k+1 : k*ld+n]
		pv = -1
		for i := k + 1; i < m; i++ {
			off := i * ld
			lik := float32(d[off+k]) * inv
			d[off+k] = float64(lik)
			rowi := d[off+k+1 : off+n]
			if lik != 0 {
				for j, v := range rowk {
					rowi[j] = float64(float32(rowi[j]) - lik*float32(v))
				}
			}
			if !last {
				if v := abs32(rowi[0]); v > pv {
					p, pv = i, v
				}
			}
		}
	}
	return err
}

// Larfg32 is Larfg at float32: the norm, the sign choice, tau, and the
// vector scaling all round to float32, so the reflector is exactly the one
// a native float32 LAPACK would produce. An overflowing norm yields
// non-finite outputs, which the caller's excursion scan turns into an f64
// demotion.
func Larfg32(alpha float64, x []float64) (beta, tau float64) {
	sigma := blas.Dot32(x, x)
	if sigma == 0 {
		return alpha, 0
	}
	a32 := float32(alpha)
	mu := float32(math.Sqrt(float64(a32*a32 + sigma)))
	var b32 float32
	if a32 <= 0 {
		b32 = mu
	} else {
		b32 = -mu
	}
	t32 := (b32 - a32) / b32
	blas.Scal32(1/(a32-b32), x)
	return float64(b32), float64(t32)
}

// larftColumn32 is larftColumn at float32.
func larftColumn32(t *mat.Matrix, j int, tau float64, w []float64) {
	t32 := float32(tau)
	for r := 0; r < j; r++ {
		var s float32
		row := t.Row(r)
		for c := r; c < j; c++ {
			s += float32(row[c]) * float32(w[c])
		}
		t.Set(r, j, float64(-t32*s))
	}
	t.Set(j, j, float64(t32))
}

// larftMerge32 is larftMerge with the two triangular products at float32.
// The final negation is exact at any precision.
func larftMerge32(t *mat.Matrix, j0, bs int, y *mat.Matrix) {
	blas.Trmm32(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(0, 0, j0, j0), y)
	blas.Trmm32(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(j0, j0, bs, bs), y)
	for i := 0; i < j0; i++ {
		dst := t.Row(i)[j0 : j0+bs]
		src := y.Row(i)
		for c := range dst {
			dst[c] = -src[c]
		}
	}
}

// subRows32 is subRows at float32: C1 −= W.
func subRows32(dst, src *mat.Matrix) {
	for i := 0; i < dst.Rows; i++ {
		blas.Axpy32(-1, src.Row(i), dst.Row(i))
	}
}

// Geqrt32 is Geqrt at float32: same compact-WY output contract (R and V in
// a, full T in t), so the resulting factor replays through either the f32
// or the f64 Unmqr.
func Geqrt32(a, t *mat.Matrix) { Geqrt32IB(a, t, PanelIB()) }

// Geqrt32IB is Geqrt32 with an explicit inner block size.
func Geqrt32IB(a, t *mat.Matrix, ib int) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Geqrt32 requires m >= n, got %dx%d", m, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Geqrt32 T too small: %dx%d for n=%d", t.Rows, t.Cols, n))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		geqrtUnblocked32(a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v := a.View(j0, j0, m-j0, bs)
		tb := t.View(j0, j0, bs, bs)
		geqrtUnblocked32(v, tb)
		if j0+bs < n {
			Unmqr32(blas.Trans, v, tb, a.View(j0, j0+bs, m-j0, n-j0-bs))
		}
		if j0 > 0 {
			mergeGeqrtT32(a, t, j0, bs)
		}
	}
}

// mergeGeqrtT32 is mergeGeqrtT with the cross-Gram GEMM and the dlarft
// recurrence at float32. The V2 materialization copies stored values (and
// writes exact 0/1), so it introduces no rounding of its own.
func mergeGeqrtT32(a, t *mat.Matrix, j0, bs int) {
	m := a.Rows
	v2, v2buf := mat.GetMatrix(m-j0, bs)
	defer mat.PutBuf(v2buf)
	for i := 0; i < m-j0; i++ {
		dst := v2.Row(i)
		src := a.Row(j0 + i)[j0 : j0+bs]
		for c := range dst {
			switch {
			case i < c:
				dst[c] = 0
			case i == c:
				dst[c] = 1
			default:
				dst[c] = src[c]
			}
		}
	}
	y, ybuf := mat.GetMatrix(j0, bs)
	defer mat.PutBuf(ybuf)
	blas.Gemm32(blas.Trans, blas.NoTrans, 1, a.View(j0, 0, m-j0, j0), v2, 0, y)
	larftMerge32(t, j0, bs, y)
}

// geqrtUnblocked32 is geqrtUnblocked at float32.
func geqrtUnblocked32(a, t *mat.Matrix) {
	m, n := a.Rows, a.Cols
	buf := mat.GetBuf(m + n)
	defer mat.PutBuf(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			x[i-j-1] = a.At(i, j)
		}
		beta, tau := Larfg32(a.At(j, j), x[:m-j-1])
		a.Set(j, j, beta)
		for i := j + 1; i < m; i++ {
			a.Set(i, j, x[i-j-1])
		}
		if tau != 0 && j+1 < n {
			wj := w[:n-j-1]
			copy(wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32(float32(a.At(i, j)), a.Row(i)[j+1:n], wj)
			}
			t32 := float32(tau)
			blas.Axpy32(-t32, wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32(-t32*float32(a.At(i, j)), wj, a.Row(i)[j+1:n])
			}
		}
		wt := w[:j]
		copy(wt, a.Row(j)[:j])
		for r := j + 1; r < m; r++ {
			blas.Axpy32(float32(a.At(r, j)), a.Row(r)[:j], wt)
		}
		larftColumn32(t, j, tau, wt)
	}
}

// Unmqr32 is Unmqr at float32: W = VᵀC through the f32 TRMM-accumulate
// and GEMM pair, T applied by the in-place f32 TRMM, and C −= V·W by the
// mirror pair.
func Unmqr32(trans blas.Transpose, v, t, c *mat.Matrix) {
	m, n := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: Unmqr32 shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Cols
	v1, c1, tn := view(v, 0, 0, n, n), view(c, 0, 0, n, k), view(t, 0, 0, n, n)
	v2, c2 := view(v, n, 0, m-n, n), view(c, n, 0, m-n, k)
	wbuf := mat.GetBuf(n * k)
	defer mat.PutBuf(wbuf)
	w := wbuf.Matrix(n, k)
	if m > n {
		blas.Gemm32(blas.Trans, blas.NoTrans, 1, &v2, &c2, 0, w)
	} else {
		w.Zero()
	}
	blas.TrmmAdd32(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, &v1, &c1, w)
	blas.Trmm32(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	blas.TrmmAdd32(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, -1, &v1, w, &c1)
	if m > n {
		blas.Gemm32(blas.NoTrans, blas.NoTrans, -1, &v2, w, 1, &c2)
	}
}

// Tsqrt32 is Tsqrt at float32; same V = [I; V2] contract, R's strictly
// lower storage untouched.
func Tsqrt32(r, a, t *mat.Matrix) { Tsqrt32IB(r, a, t, PanelIB()) }

// Tsqrt32IB is Tsqrt32 with an explicit inner block size.
func Tsqrt32IB(r, a, t *mat.Matrix, ib int) {
	n := r.Cols
	m := a.Rows
	if r.Rows != n {
		panic(fmt.Sprintf("lapack: Tsqrt32 needs square R, got %dx%d", r.Rows, r.Cols))
	}
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: Tsqrt32 A cols %d != R order %d", a.Cols, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Tsqrt32 T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		tsqrtUnblocked32(r, a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v2 := a.View(0, j0, m, bs)
		tb := t.View(j0, j0, bs, bs)
		tsqrtUnblocked32(r.View(j0, j0, bs, bs), v2, tb)
		if j0+bs < n {
			Tsmqr32(blas.Trans, v2, tb, r.View(j0, j0+bs, bs, n-j0-bs), a.View(0, j0+bs, m, n-j0-bs))
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix(j0, bs)
			blas.Gemm32(blas.Trans, blas.NoTrans, 1, a.View(0, 0, m, j0), v2, 0, y)
			larftMerge32(t, j0, bs, y)
			mat.PutBuf(ybuf)
		}
	}
}

// tsqrtUnblocked32 is tsqrtUnblocked at float32.
func tsqrtUnblocked32(r, a, t *mat.Matrix) {
	n := r.Cols
	m := a.Rows
	buf := mat.GetBuf(m + n)
	defer mat.PutBuf(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			x[i] = a.At(i, j)
		}
		beta, tau := Larfg32(r.At(j, j), x)
		r.Set(j, j, beta)
		for i := 0; i < m; i++ {
			a.Set(i, j, x[i])
		}
		if tau != 0 && j+1 < n {
			rrow := r.Row(j)[j+1 : n]
			wj := w[:n-j-1]
			copy(wj, rrow)
			for i := 0; i < m; i++ {
				arow := a.Row(i)
				blas.Axpy32(float32(arow[j]), arow[j+1:n], wj)
			}
			t32 := float32(tau)
			blas.Axpy32(-t32, wj, rrow)
			for i := 0; i < m; i++ {
				arow := a.Row(i)
				blas.Axpy32(-t32*float32(arow[j]), wj, arow[j+1:n])
			}
		}
		wt := w[:j]
		for i := range wt {
			wt[i] = 0
		}
		for q := 0; q < m; q++ {
			arow := a.Row(q)
			blas.Axpy32(float32(arow[j]), arow[:j], wt)
		}
		larftColumn32(t, j, tau, wt)
	}
}

// Tsmqr32 is Tsmqr at float32.
func Tsmqr32(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix) {
	m, n := v2.Rows, v2.Cols
	if c1.Rows != n || c2.Rows != m || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Tsmqr32 shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			m, n, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	tn := view(t, 0, 0, n, n)
	wbuf := mat.GetBuf(n * k)
	defer mat.PutBuf(wbuf)
	w := wbuf.Matrix(n, k)
	w.CopyFrom(c1)
	blas.Gemm32(blas.Trans, blas.NoTrans, 1, v2, c2, 1, w)
	blas.Trmm32(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	subRows32(c1, w)
	blas.Gemm32(blas.NoTrans, blas.NoTrans, -1, v2, w, 1, c2)
}

// Ttqrt32 is Ttqrt at float32; strictly lower parts of both tiles stay
// untouched exactly as in the f64 kernel.
func Ttqrt32(r1, r2, t *mat.Matrix) { Ttqrt32IB(r1, r2, t, PanelIB()) }

// Ttqrt32IB is Ttqrt32 with an explicit inner block size.
func Ttqrt32IB(r1, r2, t *mat.Matrix, ib int) {
	n := r1.Cols
	if r1.Rows != n || r2.Rows != n || r2.Cols != n {
		panic(fmt.Sprintf("lapack: Ttqrt32 needs square tiles, got %dx%d and %dx%d",
			r1.Rows, r1.Cols, r2.Rows, r2.Cols))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Ttqrt32 T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		ttqrtUnblocked32(r1, r2.View(0, 0, n, n), t, 0)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		rest := n - j0 - bs
		tb := t.View(j0, j0, bs, bs)
		ttqrtUnblocked32(r1.View(j0, j0, bs, bs), r2.View(0, j0, j0+bs, bs), tb, j0)
		if rest > 0 {
			ttqrtApply32(r1, r2, tb, j0, bs, rest)
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix(j0, bs)
			y.CopyFrom(r2.View(0, j0, j0, bs))
			blas.Trmm32(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, r2.View(0, 0, j0, j0), y)
			larftMerge32(t, j0, bs, y)
			mat.PutBuf(ybuf)
		}
	}
}

// ttqrtApply32 is ttqrtApply at float32.
func ttqrtApply32(r1, r2, tb *mat.Matrix, j0, bs, rest int) {
	c1 := view(r1, j0, j0+bs, bs, rest)
	tri := view(r2, j0, j0, bs, bs)
	c2bot := view(r2, j0, j0+bs, bs, rest)
	d, c2top := view(r2, 0, j0, j0, bs), view(r2, 0, j0+bs, j0, rest)
	wbuf := mat.GetBuf(bs * rest)
	defer mat.PutBuf(wbuf)
	w := wbuf.Matrix(bs, rest)
	w.CopyFrom(&c1)
	if j0 > 0 {
		blas.Gemm32(blas.Trans, blas.NoTrans, 1, &d, &c2top, 1, w)
	}
	blas.TrmmAdd32(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, &tri, &c2bot, w)
	blas.Trmm32(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tb, w)
	subRows32(&c1, w)
	if j0 > 0 {
		blas.Gemm32(blas.NoTrans, blas.NoTrans, -1, &d, w, 1, &c2top)
	}
	blas.TrmmAdd32(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, -1, &tri, w, &c2bot)
}

// ttqrtUnblocked32 is ttqrtUnblocked at float32.
func ttqrtUnblocked32(r1, r2, t *mat.Matrix, off int) {
	n := r1.Cols
	buf := mat.GetBuf(2*n + off)
	defer mat.PutBuf(buf)
	x := buf.Data[: n+off : n+off]
	w := buf.Data[n+off:]
	for j := 0; j < n; j++ {
		h := off + j
		for i := 0; i <= h; i++ {
			x[i] = r2.At(i, j)
		}
		beta, tau := Larfg32(r1.At(j, j), x[:h+1])
		r1.Set(j, j, beta)
		for i := 0; i <= h; i++ {
			r2.Set(i, j, x[i])
		}
		if tau != 0 && j+1 < n {
			r1row := r1.Row(j)[j+1 : n]
			wj := w[:n-j-1]
			copy(wj, r1row)
			for i := 0; i <= h; i++ {
				r2row := r2.Row(i)
				blas.Axpy32(float32(r2row[j]), r2row[j+1:n], wj)
			}
			t32 := float32(tau)
			blas.Axpy32(-t32, wj, r1row)
			for i := 0; i <= h; i++ {
				r2row := r2.Row(i)
				blas.Axpy32(-t32*float32(r2row[j]), wj, r2row[j+1:n])
			}
		}
		wt := w[:j]
		for i := range wt {
			wt[i] = 0
		}
		for q := 0; q <= h; q++ {
			r2row := r2.Row(q)
			i0 := q - off
			if i0 < 0 {
				i0 = 0
			}
			if i0 < j {
				blas.Axpy32(float32(r2row[j]), r2row[i0:j], wt[i0:j])
			}
		}
		larftColumn32(t, j, tau, wt)
	}
}

// Ttmqr32 is Ttmqr at float32.
func Ttmqr32(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix) {
	n := v2.Rows
	if v2.Cols != n || c1.Rows != n || c2.Rows != n || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Ttmqr32 shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			v2.Rows, v2.Cols, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	tn := view(t, 0, 0, n, n)
	wbuf := mat.GetBuf(n * k)
	defer mat.PutBuf(wbuf)
	w := wbuf.Matrix(n, k)
	w.CopyFrom(c1)
	blas.TrmmAdd32(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, v2, c2, w)
	blas.Trmm32(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	subRows32(c1, w)
	blas.TrmmAdd32(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, -1, v2, w, c2)
}
