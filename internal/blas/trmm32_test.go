package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// trmmBasic32 is the unblocked float32 triangular-multiply loop the packed
// Trmm32 is checked against: row-wise Axpy32/Dot32 passes that read only
// the stored triangle of T, and not its diagonal when diag is Unit.
func trmmBasic32(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float32, t, b *mat.Matrix) {
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
		if !lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy32(get(i, p), b.Row(p), bi)
				}
				Scal32(alpha, bi)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy32(get(i, p), b.Row(p), bi)
				}
				Scal32(alpha, bi)
			}
		}
		return
	}
	if trans == Trans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot32(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += float32(row[j]) * float32(t.At(j, j))
					} else {
						s += float32(row[j])
					}
					row[j] = float64(alpha * s)
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot32(row[:j], t.Row(j)[:j])
					if diag == NonUnit {
						s += float32(row[j]) * float32(t.At(j, j))
					} else {
						s += float32(row[j])
					}
					row[j] = float64(alpha * s)
				}
			}
		}
		return
	}
	buf := mat.GetBuf32(n)
	defer mat.PutBuf32(buf)
	tmp := buf.Data[:n]
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for j := range tmp {
			tmp[j] = 0
		}
		for p := 0; p < n; p++ {
			v := float32(row[p])
			if v == 0 {
				continue
			}
			tr := t.Row(p)
			if !lower {
				if diag == NonUnit {
					for j := p; j < n; j++ {
						tmp[j] += v * float32(tr[j])
					}
				} else {
					tmp[p] += v
					for j := p + 1; j < n; j++ {
						tmp[j] += v * float32(tr[j])
					}
				}
			} else {
				if diag == NonUnit {
					for j := 0; j <= p; j++ {
						tmp[j] += v * float32(tr[j])
					}
				} else {
					for j := 0; j < p; j++ {
						tmp[j] += v * float32(tr[j])
					}
					tmp[p] += v
				}
			}
		}
		for j := range row {
			row[j] = float64(alpha * tmp[j])
		}
	}
}

// trmmBasic32R is trmmBasic32 on float32 storage, the oracle for Trmm32R
// and TrmmAdd32R.
func trmmBasic32R(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float32, t, b *mat.Matrix32) {
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
		if !lower {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32R(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy32R(get(i, p), b.Row(p), bi)
				}
				Scal32R(alpha, bi)
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal32R(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy32R(get(i, p), b.Row(p), bi)
				}
				Scal32R(alpha, bi)
			}
		}
		return
	}
	if trans == Trans {
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot32R(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot32R(row[:j], t.Row(j)[:j])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			}
		}
		return
	}
	buf := mat.GetBuf32(n)
	defer mat.PutBuf32(buf)
	tmp := buf.Data[:n]
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for j := range tmp {
			tmp[j] = 0
		}
		for p := 0; p < n; p++ {
			v := row[p]
			if v == 0 {
				continue
			}
			tr := t.Row(p)
			if !lower {
				if diag == NonUnit {
					for j := p; j < n; j++ {
						tmp[j] += v * tr[j]
					}
				} else {
					tmp[p] += v
					for j := p + 1; j < n; j++ {
						tmp[j] += v * tr[j]
					}
				}
			} else {
				if diag == NonUnit {
					for j := 0; j <= p; j++ {
						tmp[j] += v * tr[j]
					}
				} else {
					for j := 0; j < p; j++ {
						tmp[j] += v * tr[j]
					}
					tmp[p] += v
				}
			}
		}
		for j := range row {
			row[j] = alpha * tmp[j]
		}
	}
}

// trmmTol32 bounds the difference between two float32 summation orders of
// an order-n triangular product of standard normal operands.
func trmmTol32(n int) float64 { return 5e-6 * float64(n+1) * math.Sqrt(float64(n+1)) }

// maxDiff32 returns max |a−b| over two equally shaped float32 matrices, or
// NaN as soon as one difference is NaN (mat.MaxDiff would skip it).
func maxDiff32(a, b *mat.Matrix32) float64 {
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			e := math.Abs(float64(ra[j]) - float64(rb[j]))
			if e != e {
				return e
			}
			d = max(d, e)
		}
	}
	return d
}

// widen32 returns the float64 matrix holding float64(m).
func widen32(m *mat.Matrix32) *mat.Matrix {
	w := mat.New(m.Rows, m.Cols)
	m.WidenInto(w)
	return w
}

// TestTrmm32AllVariantsPoisoned checks the resident Trmm32R (in place) and
// TrmmAdd32R (accumulating) for every side/uplo/trans/diag combination
// against trmmBasic32R, at orders that cover the micro-tile fringes, one and
// several micro-panels, the production tile order 192 and the blocked path
// past gemmKC, and widths from a single vector to more than one gemmNC slab
// (and, on the Right, more than one gemmMC row block). T is NaN-poisoned
// outside what it may read. The converting Trmm32/TrmmAdd32 run on the
// widened operands and must match bit for bit.
func TestTrmm32AllVariantsPoisoned(t *testing.T) {
	checkTrmm32Grid(t, []int{1, 5, 6, 7, 8, 16, 33, 100, 192, 257, 300}, []int{1, 7, 192, 600})
}

// TestTrmm32PortableKernel reruns the grid under the portable 4×4 float32
// micro-kernel, whose panel geometry differs from the host kernel's.
func TestTrmm32PortableKernel(t *testing.T) {
	withKernel32(4, 4, kernelGeneric4x4f32, func() {
		checkTrmm32Grid(t, []int{1, 5, 6, 7, 8, 16, 33, 100, 257}, []int{1, 7, 600})
	})
}

func checkTrmm32Grid(t *testing.T, orders, widths []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	const alpha = -1.5
	for _, n := range orders {
		for _, w := range widths {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Upper, Lower} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							name := fmt.Sprintf("n=%d w=%d side=%v uplo=%v trans=%v diag=%v", n, w, side, uplo, trans, diag)
							tm := roundTo32(poisonedTri(rng, n, uplo, diag))
							br, bc := n, w
							if side == Right {
								br, bc = w, n
							}
							b := roundTo32(randMat(rng, br, bc))
							want := mat.NewMatrix32(br, bc)
							want.CopyFrom(b)
							trmmBasic32R(side, uplo, trans, diag, alpha, tm, want)

							got := mat.NewMatrix32(br, bc)
							got.CopyFrom(b)
							Trmm32R(side, uplo, trans, diag, alpha, tm, got)
							if d := maxDiff32(got, want); !(d <= trmmTol32(n)) {
								t.Fatalf("Trmm32R %s: diff %g", name, d)
							}
							got64 := widen32(b)
							Trmm32(side, uplo, trans, diag, alpha, widen32(tm), got64)
							matchWidened(t, "Trmm32 "+name, got, got64)

							c := roundTo32(randMat(rng, br, bc))
							acc := mat.NewMatrix32(br, bc)
							acc.CopyFrom(c)
							TrmmAdd32R(side, uplo, trans, diag, alpha, tm, b, acc)
							for i := range want.Data {
								want.Data[i] += c.Data[i]
							}
							if d := maxDiff32(acc, want); !(d <= trmmTol32(n)) {
								t.Fatalf("TrmmAdd32R %s: diff %g", name, d)
							}
							acc64 := widen32(c)
							TrmmAdd32(side, uplo, trans, diag, alpha, widen32(tm), widen32(b), acc64)
							matchWidened(t, "TrmmAdd32 "+name, acc, acc64)
						}
					}
				}
			}
		}
	}
}

// TestTrmm32RZeroAlloc pins the steady-state zero-allocation contract of the
// packed float32 TRMM at the production tile order: both sides, in place
// and accumulating.
func TestTrmm32RZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(16))
	const nb = 192
	tm := roundTo32(randTri(rng, nb, Upper, NonUnit))
	b, c := roundTo32(randMat(rng, nb, nb)), roundTo32(randMat(rng, nb, nb))
	for name, run := range map[string]func(){
		"left":     func() { Trmm32R(Left, Upper, Trans, NonUnit, 1, tm, b) },
		"right":    func() { Trmm32R(Right, Upper, NoTrans, NonUnit, 1, tm, b) },
		"left-add": func() { TrmmAdd32R(Left, Upper, NoTrans, Unit, -1, tm, b, c) },
	} {
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("Trmm32R %s nb=%d: %v allocs/op, want 0", name, nb, allocs)
		}
	}
}

func BenchmarkTrmm32R(b *testing.B) {
	const nb = 192
	for _, side := range []Side{Left, Right} {
		b.Run(fmt.Sprintf("side=%v/nb=%d", side, nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			tm := roundTo32(randTri(rng, nb, Upper, NonUnit))
			x := roundTo32(randMat(rng, nb, nb))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Trmm32R(side, Upper, Trans, NonUnit, 0.5, tm, x)
			}
			b.StopTimer()
			gf := float64(nb) * float64(nb) * float64(nb) / 1e9
			b.ReportMetric(gf*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}
