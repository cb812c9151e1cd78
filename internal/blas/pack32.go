package blas

import "luqr/internal/mat"

// Float32 packing for the mixed-precision GEMM and TRMM paths. Layout and
// blocking are identical to the float64 pack (pack.go). The packers are
// generic over the storage element: on float64 storage the float64 →
// float32 conversion is fused into the pack, so the demotion to single
// precision costs no extra pass over memory; on float32 storage (resident
// tile images) packing is a plain copy. Either way the micro-kernel
// consumes pure float32 panels, and equal float32 values pack to equal
// panels, which keeps the converting and resident kernels bit-identical.

// The conversion inner loops are behind function variables so amd64 hosts
// with AVX can swap in vectorized versions (VCVTPD2PS retires four
// conversions per instruction) at init; the generic bodies are the portable
// fallback.
var (
	// cvtRow32 converts a contiguous float64 row: dst[i] = float32(src[i]).
	cvtRow32 = cvtRow32Generic
	// cvtScaleStride32 converts with a scale and a strided destination:
	// dst[i*stride] = alpha·float32(src[i]).
	cvtScaleStride32 = cvtScaleStride32Generic
)

func cvtRow32Generic(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

func cvtScaleStride32Generic(dst []float32, stride int, src []float64, alpha float32) {
	for i, v := range src {
		dst[i*stride] = alpha * float32(v)
	}
}

// dense is a by-value row-major header over float32 or float64 storage: the
// operand type of the generic packers and of the float32 TRMM driver.
type dense[E float32 | float64] struct {
	rows, cols, stride int
	data               []E
}

func dense64(m *mat.Matrix) dense[float64] {
	return dense[float64]{m.Rows, m.Cols, m.Stride, m.Data}
}

func dense32(m *mat.Matrix32) dense[float32] {
	return dense[float32]{m.Rows, m.Cols, m.Stride, m.Data}
}

// view returns the rows×cols block at (i, j).
func (d dense[E]) view(i, j, rows, cols int) dense[E] {
	if rows == 0 || cols == 0 {
		return dense[E]{rows: rows, cols: cols, stride: d.stride}
	}
	return dense[E]{rows, cols, d.stride, d.data[i*d.stride+j:]}
}

// packA32 packs op(A)[i0:i0+mc, p0:p0+kc], scaled by alpha and rounded to
// float32, into MR-tall column-major micro-panels (element (ir+i, p) at
// buf[ir*kc+p*mr+i]), zero-padding rows past mc to a full MR.
func packA32[E float32 | float64](buf []float32, a dense[E], transA Transpose, alpha float32, i0, p0, mc, kc, mr int) {
	a64, conv := any(a.data).([]float64)
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		dst := buf[ir*kc:]
		if transA == NoTrans {
			for i := 0; i < rows; i++ {
				off := (i0+ir+i)*a.stride + p0
				if conv {
					cvtScaleStride32(dst[i:], mr, a64[off:off+kc], alpha)
					continue
				}
				for p, v := range a.data[off : off+kc] {
					dst[p*mr+i] = alpha * float32(v)
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := a.data[(p0+p)*a.stride+i0+ir:][:rows]
				d := dst[p*mr : p*mr+rows : p*mr+rows]
				for i, v := range src {
					d[i] = alpha * float32(v)
				}
			}
		}
		if rows < mr {
			for p := 0; p < kc; p++ {
				clear(dst[p*mr+rows : p*mr+mr])
			}
		}
	}
}

// packB32 packs op(B)[p0:p0+kc, j0:j0+nc], rounded to float32, into NR-wide
// row-major micro-panels (element (p, jr+j) at buf[jr*kc+p*nr+j]),
// zero-padding columns past nc to a full NR.
func packB32[E float32 | float64](buf []float32, b dense[E], transB Transpose, j0, p0, kc, nc, nr int) {
	b64, conv := any(b.data).([]float64)
	b32, _ := any(b.data).([]float32)
	if transB == NoTrans {
		for p := 0; p < kc; p++ {
			off := (p0+p)*b.stride + j0
			for jr := 0; jr < nc; jr += nr {
				cols := min(nr, nc-jr)
				d := buf[jr*kc+p*nr : jr*kc+p*nr+nr : jr*kc+p*nr+nr]
				if conv {
					cvtRow32(d[:cols], b64[off+jr:off+jr+cols])
				} else {
					copy(d, b32[off+jr:off+jr+cols])
				}
				clear(d[cols:])
			}
		}
		return
	}
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		dst := buf[jr*kc:]
		for j := 0; j < cols; j++ {
			off := (j0+jr+j)*b.stride + p0
			if conv {
				cvtScaleStride32(dst[j:], nr, b64[off:off+kc], 1)
				continue
			}
			for p, v := range b32[off : off+kc] {
				dst[p*nr+j] = v
			}
		}
		if cols < nr {
			for p := 0; p < kc; p++ {
				clear(dst[p*nr+cols : p*nr+nr])
			}
		}
	}
}
