package lapack

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Resident mixed-precision kernels: float32 arithmetic on float32 storage.
//
// Each routine here mirrors its f32-on-f64 sibling in f32.go operation for
// operation — same pivot semantics, same compact-WY contracts, same scratch
// shapes — with operands held in mat.Matrix32 tile images, so the per-call
// round-on-read/widen-on-write conversions disappear. Because widening a
// float32 to float64 is exact and rounding it back returns the same bits,
// a resident kernel produces bit-identical values to its converting sibling
// whenever the float64 storage holds widened float32 values, which is the
// residency layer's invariant. T factors stay in the caller's float32
// scratch and are widened once per factor task, not per update.

// Laswp32R applies Getrf row interchanges to a float32 tile image, forward
// (inverse == false) or backward (inverse == true), exactly like Laswp.
func Laswp32R(a *mat.Matrix32, piv []int, inverse bool) {
	if !inverse {
		for k := 0; k < len(piv); k++ {
			if piv[k] != k {
				a.SwapRows(k, piv[k])
			}
		}
		return
	}
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			a.SwapRows(k, piv[k])
		}
	}
}

func absf32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Getrf32R is Getrf32 on float32 storage: LU with partial pivoting,
// recursive right-looking, float32 pivot comparison, float32-zero pivot is
// a breakdown.
func Getrf32R(a *mat.Matrix32) (piv []int, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Getrf32R requires m >= n, got %dx%d", m, n))
	}
	piv = make([]int, n)
	return piv, getrfRecursive32R(a, piv)
}

func getrfRecursive32R(a *mat.Matrix32, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	if n <= getrfLeaf {
		return getrfUnblocked32R(a, piv)
	}
	n1 := n / 2
	if e := getrfRecursive32R(a.View(0, 0, m, n1), piv[:n1]); e != nil {
		err = e
	}
	Laswp32R(a.View(0, n1, m, n-n1), piv[:n1], false)
	u12 := a.View(0, n1, n1, n-n1)
	blas.Trsm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(0, 0, n1, n1), u12)
	blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a.View(n1, 0, m-n1, n1), u12, 1, a.View(n1, n1, m-n1, n-n1))
	if e := getrfRecursive32R(a.View(n1, n1, m-n1, n-n1), piv[n1:]); e != nil {
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

// getrfUnblocked32R is getrfUnblocked32 on float32 storage, with the same
// fused next-pivot search.
func getrfUnblocked32R(a *mat.Matrix32, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	d, ld := a.Data, a.Stride
	p, pv := 0, absf32(d[0])
	for i := 1; i < m; i++ {
		if v := absf32(d[i*ld]); v > pv {
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
		akk := d[k*ld+k]
		last := k+1 == n
		if akk == 0 {
			err = ErrSingular
			if !last {
				p, pv = k+1, absf32(d[(k+1)*ld+k+1])
				for i := k + 2; i < m; i++ {
					if v := absf32(d[i*ld+k+1]); v > pv {
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
			lik := d[off+k] * inv
			d[off+k] = lik
			rowi := d[off+k+1 : off+n]
			if lik != 0 {
				for j, v := range rowk {
					rowi[j] = rowi[j] - lik*v
				}
			}
			if !last {
				if v := absf32(rowi[0]); v > pv {
					p, pv = i, v
				}
			}
		}
	}
	return err
}

// Larfg32R is Larfg32 on float32 storage: same norm, sign choice, tau, and
// scaling, all at float32.
func Larfg32R(alpha float32, x []float32) (beta, tau float32) {
	sigma := blas.Dot32R(x, x)
	if sigma == 0 {
		return alpha, 0
	}
	mu := float32(math.Sqrt(float64(alpha*alpha + sigma)))
	var b32 float32
	if alpha <= 0 {
		b32 = mu
	} else {
		b32 = -mu
	}
	t32 := (b32 - alpha) / b32
	blas.Scal32R(1/(alpha-b32), x)
	return b32, t32
}

// larftColumn32R is larftColumn32 on float32 storage.
func larftColumn32R(t *mat.Matrix32, j int, tau float32, w []float32) {
	for r := 0; r < j; r++ {
		var s float32
		row := t.Row(r)
		for c := r; c < j; c++ {
			s += row[c] * w[c]
		}
		t.Set(r, j, -tau*s)
	}
	t.Set(j, j, tau)
}

// larftMerge32R is larftMerge32 on float32 storage.
func larftMerge32R(t *mat.Matrix32, j0, bs int, y *mat.Matrix32) {
	blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(0, 0, j0, j0), y)
	blas.Trmm32R(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(j0, j0, bs, bs), y)
	for i := 0; i < j0; i++ {
		dst := t.Row(i)[j0 : j0+bs]
		src := y.Row(i)
		for c := range dst {
			dst[c] = -src[c]
		}
	}
}

// subRows32R is subRows on float32 storage: the identity block of a
// [I; V2] reflector, C1 −= W.
func subRows32R(dst, src *mat.Matrix32) {
	for i := 0; i < dst.Rows; i++ {
		blas.Axpy32R(-1, src.Row(i), dst.Row(i))
	}
}

// view32 is view for float32 tile images: a by-value sub-matrix header, so
// the update kernels allocate nothing per call.
func view32(m *mat.Matrix32, i, j, rows, cols int) mat.Matrix32 {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(fmt.Sprintf("lapack: view32 (%d,%d,%d,%d) out of range %dx%d", i, j, rows, cols, m.Rows, m.Cols))
	}
	if rows == 0 || cols == 0 {
		return mat.Matrix32{Rows: rows, Cols: cols, Stride: m.Stride}
	}
	return mat.Matrix32{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Geqrt32R is Geqrt32 on float32 storage: R and V in a, full T in t.
func Geqrt32R(a, t *mat.Matrix32) { Geqrt32RIB(a, t, PanelIB()) }

// Geqrt32RIB is Geqrt32R with an explicit inner block size.
func Geqrt32RIB(a, t *mat.Matrix32, ib int) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Geqrt32R requires m >= n, got %dx%d", m, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Geqrt32R T too small: %dx%d for n=%d", t.Rows, t.Cols, n))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		geqrtUnblocked32R(a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v := a.View(j0, j0, m-j0, bs)
		tb := t.View(j0, j0, bs, bs)
		geqrtUnblocked32R(v, tb)
		if j0+bs < n {
			Unmqr32R(blas.Trans, v, tb, a.View(j0, j0+bs, m-j0, n-j0-bs))
		}
		if j0 > 0 {
			mergeGeqrtT32R(a, t, j0, bs)
		}
	}
}

// mergeGeqrtT32R is mergeGeqrtT32 on float32 storage. The V2
// materialization copies stored values (and writes exact 0/1), so it
// introduces no rounding of its own.
func mergeGeqrtT32R(a, t *mat.Matrix32, j0, bs int) {
	m := a.Rows
	v2, v2buf := mat.GetMatrix32(m-j0, bs)
	defer mat.PutBuf32(v2buf)
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
	y, ybuf := mat.GetMatrix32(j0, bs)
	defer mat.PutBuf32(ybuf)
	blas.Gemm32R(blas.Trans, blas.NoTrans, 1, a.View(j0, 0, m-j0, j0), v2, 0, y)
	larftMerge32R(t, j0, bs, y)
}

// geqrtUnblocked32R is geqrtUnblocked32 on float32 storage.
func geqrtUnblocked32R(a, t *mat.Matrix32) {
	m, n := a.Rows, a.Cols
	buf := mat.GetBuf32(m + n)
	defer mat.PutBuf32(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			x[i-j-1] = a.At(i, j)
		}
		beta, tau := Larfg32R(a.At(j, j), x[:m-j-1])
		a.Set(j, j, beta)
		for i := j + 1; i < m; i++ {
			a.Set(i, j, x[i-j-1])
		}
		if tau != 0 && j+1 < n {
			wj := w[:n-j-1]
			copy(wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32R(a.At(i, j), a.Row(i)[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32R(-tau*a.At(i, j), wj, a.Row(i)[j+1:n])
			}
		}
		wt := w[:j]
		copy(wt, a.Row(j)[:j])
		for r := j + 1; r < m; r++ {
			blas.Axpy32R(a.At(r, j), a.Row(r)[:j], wt)
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Unmqr32R is Unmqr32 on float32 storage.
func Unmqr32R(trans blas.Transpose, v, t, c *mat.Matrix32) {
	m, n := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: Unmqr32R shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Cols
	v1, c1, tn := view32(v, 0, 0, n, n), view32(c, 0, 0, n, k), view32(t, 0, 0, n, n)
	v2, c2 := view32(v, n, 0, m-n, n), view32(c, n, 0, m-n, k)
	wbuf := mat.GetBuf32(n * k)
	defer mat.PutBuf32(wbuf)
	w := wbuf.Matrix32(n, k)
	if m > n {
		blas.Gemm32R(blas.Trans, blas.NoTrans, 1, &v2, &c2, 0, w)
	} else {
		w.Zero()
	}
	blas.TrmmAdd32R(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, &v1, &c1, w)
	blas.Trmm32R(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	blas.TrmmAdd32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, -1, &v1, w, &c1)
	if m > n {
		blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, &v2, w, 1, &c2)
	}
}

// Tsqrt32R is Tsqrt32 on float32 storage.
func Tsqrt32R(r, a, t *mat.Matrix32) { Tsqrt32RIB(r, a, t, PanelIB()) }

// Tsqrt32RIB is Tsqrt32R with an explicit inner block size.
func Tsqrt32RIB(r, a, t *mat.Matrix32, ib int) {
	n := r.Cols
	m := a.Rows
	if r.Rows != n {
		panic(fmt.Sprintf("lapack: Tsqrt32R needs square R, got %dx%d", r.Rows, r.Cols))
	}
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: Tsqrt32R A cols %d != R order %d", a.Cols, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Tsqrt32R T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		tsqrtUnblocked32R(r, a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v2 := a.View(0, j0, m, bs)
		tb := t.View(j0, j0, bs, bs)
		tsqrtUnblocked32R(r.View(j0, j0, bs, bs), v2, tb)
		if j0+bs < n {
			Tsmqr32R(blas.Trans, v2, tb, r.View(j0, j0+bs, bs, n-j0-bs), a.View(0, j0+bs, m, n-j0-bs))
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix32(j0, bs)
			blas.Gemm32R(blas.Trans, blas.NoTrans, 1, a.View(0, 0, m, j0), v2, 0, y)
			larftMerge32R(t, j0, bs, y)
			mat.PutBuf32(ybuf)
		}
	}
}

// tsqrtUnblocked32R is tsqrtUnblocked32 on float32 storage.
func tsqrtUnblocked32R(r, a, t *mat.Matrix32) {
	n := r.Cols
	m := a.Rows
	buf := mat.GetBuf32(m + n)
	defer mat.PutBuf32(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			x[i] = a.At(i, j)
		}
		beta, tau := Larfg32R(r.At(j, j), x)
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
				blas.Axpy32R(arow[j], arow[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, rrow)
			for i := 0; i < m; i++ {
				arow := a.Row(i)
				blas.Axpy32R(-tau*arow[j], wj, arow[j+1:n])
			}
		}
		wt := w[:j]
		for i := range wt {
			wt[i] = 0
		}
		for q := 0; q < m; q++ {
			arow := a.Row(q)
			blas.Axpy32R(arow[j], arow[:j], wt)
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Tsmqr32R is Tsmqr32 on float32 storage.
func Tsmqr32R(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix32) {
	m, n := v2.Rows, v2.Cols
	if c1.Rows != n || c2.Rows != m || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Tsmqr32R shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			m, n, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	tn := view32(t, 0, 0, n, n)
	wbuf := mat.GetBuf32(n * k)
	defer mat.PutBuf32(wbuf)
	w := wbuf.Matrix32(n, k)
	w.CopyFrom(c1)
	blas.Gemm32R(blas.Trans, blas.NoTrans, 1, v2, c2, 1, w)
	blas.Trmm32R(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	subRows32R(c1, w)
	blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, v2, w, 1, c2)
}

// Ttqrt32R is Ttqrt32 on float32 storage.
func Ttqrt32R(r1, r2, t *mat.Matrix32) { Ttqrt32RIB(r1, r2, t, PanelIB()) }

// Ttqrt32RIB is Ttqrt32R with an explicit inner block size.
func Ttqrt32RIB(r1, r2, t *mat.Matrix32, ib int) {
	n := r1.Cols
	if r1.Rows != n || r2.Rows != n || r2.Cols != n {
		panic(fmt.Sprintf("lapack: Ttqrt32R needs square tiles, got %dx%d and %dx%d",
			r1.Rows, r1.Cols, r2.Rows, r2.Cols))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Ttqrt32R T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		ttqrtUnblocked32R(r1, r2.View(0, 0, n, n), t, 0)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		rest := n - j0 - bs
		tb := t.View(j0, j0, bs, bs)
		ttqrtUnblocked32R(r1.View(j0, j0, bs, bs), r2.View(0, j0, j0+bs, bs), tb, j0)
		if rest > 0 {
			ttqrtApply32R(r1, r2, tb, j0, bs, rest)
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix32(j0, bs)
			y.CopyFrom(r2.View(0, j0, j0, bs))
			blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, r2.View(0, 0, j0, j0), y)
			larftMerge32R(t, j0, bs, y)
			mat.PutBuf32(ybuf)
		}
	}
}

// ttqrtApply32R is ttqrtApply32 on float32 storage.
func ttqrtApply32R(r1, r2, tb *mat.Matrix32, j0, bs, rest int) {
	c1 := view32(r1, j0, j0+bs, bs, rest)
	tri := view32(r2, j0, j0, bs, bs)
	c2bot := view32(r2, j0, j0+bs, bs, rest)
	d, c2top := view32(r2, 0, j0, j0, bs), view32(r2, 0, j0+bs, j0, rest)
	wbuf := mat.GetBuf32(bs * rest)
	defer mat.PutBuf32(wbuf)
	w := wbuf.Matrix32(bs, rest)
	w.CopyFrom(&c1)
	if j0 > 0 {
		blas.Gemm32R(blas.Trans, blas.NoTrans, 1, &d, &c2top, 1, w)
	}
	blas.TrmmAdd32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, &tri, &c2bot, w)
	blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tb, w)
	subRows32R(&c1, w)
	if j0 > 0 {
		blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, &d, w, 1, &c2top)
	}
	blas.TrmmAdd32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, -1, &tri, w, &c2bot)
}

// ttqrtUnblocked32R is ttqrtUnblocked32 on float32 storage.
func ttqrtUnblocked32R(r1, r2, t *mat.Matrix32, off int) {
	n := r1.Cols
	buf := mat.GetBuf32(2*n + off)
	defer mat.PutBuf32(buf)
	x := buf.Data[: n+off : n+off]
	w := buf.Data[n+off:]
	for j := 0; j < n; j++ {
		h := off + j
		for i := 0; i <= h; i++ {
			x[i] = r2.At(i, j)
		}
		beta, tau := Larfg32R(r1.At(j, j), x[:h+1])
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
				blas.Axpy32R(r2row[j], r2row[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, r1row)
			for i := 0; i <= h; i++ {
				r2row := r2.Row(i)
				blas.Axpy32R(-tau*r2row[j], wj, r2row[j+1:n])
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
				blas.Axpy32R(r2row[j], r2row[i0:j], wt[i0:j])
			}
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Ttmqr32R is Ttmqr32 on float32 storage.
func Ttmqr32R(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix32) {
	n := v2.Rows
	if v2.Cols != n || c1.Rows != n || c2.Rows != n || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Ttmqr32R shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			v2.Rows, v2.Cols, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	tn := view32(t, 0, 0, n, n)
	wbuf := mat.GetBuf32(n * k)
	defer mat.PutBuf32(wbuf)
	w := wbuf.Matrix32(n, k)
	w.CopyFrom(c1)
	blas.TrmmAdd32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, v2, c2, w)
	blas.Trmm32R(blas.Left, blas.Upper, trans, blas.NonUnit, 1, &tn, w)
	subRows32R(c1, w)
	blas.TrmmAdd32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, -1, v2, w, c2)
}
