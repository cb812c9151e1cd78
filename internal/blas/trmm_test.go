package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// trmmBasic is the unblocked triangular-multiply loop the packed Trmm is
// checked against: row-wise Axpy/Dot passes that, like Trmm, read only the
// stored triangle of T and not its diagonal when diag is Unit.
func trmmBasic(side Side, uplo Uplo, trans Transpose, diag Diag, alpha float64, t, b *mat.Matrix) {
	n := t.Rows
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
		if !lower {
			// Row i of result depends on rows i..n−1: compute top-down.
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := i + 1; p < n; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		} else {
			// Row i depends on rows 0..i: compute bottom-up.
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				if diag == NonUnit {
					Scal(get(i, i), bi)
				}
				for p := 0; p < i; p++ {
					Axpy(get(i, p), b.Row(p), bi)
				}
				Scal(alpha, bi)
			}
		}
		return
	}
	// Right side: operate on each row independently.
	if trans == Trans {
		// op(T)[p, j] = t[j, p]: each result entry is a dot product against
		// the contiguous row j of t. The in-place order follows the
		// dependency direction (ascending reads x[j:], descending x[:j]).
		for r := 0; r < b.Rows; r++ {
			row := b.Row(r)
			if lower {
				for j := 0; j < n; j++ {
					s := Dot(row[j+1:n], t.Row(j)[j+1:n])
					if diag == NonUnit {
						s += row[j] * t.At(j, j)
					} else {
						s += row[j]
					}
					row[j] = alpha * s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := Dot(row[:j], t.Row(j)[:j])
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
	// Untransposed: accumulate x·T into a scratch row with Axpy over t's
	// contiguous rows, then write back.
	buf := mat.GetBuf(n)
	defer mat.PutBuf(buf)
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
			if !lower {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[p:n], tmp[p:n])
				} else {
					tmp[p] += v
					Axpy(v, t.Row(p)[p+1:n], tmp[p+1:n])
				}
			} else {
				if diag == NonUnit {
					Axpy(v, t.Row(p)[:p+1], tmp[:p+1])
				} else {
					Axpy(v, t.Row(p)[:p], tmp[:p])
					tmp[p] += v
				}
			}
		}
		if alpha == 1 {
			copy(row, tmp)
		} else {
			for j := range row {
				row[j] = alpha * tmp[j]
			}
		}
	}
}

// poisonedTri returns an n×n triangular factor whose stored triangle holds
// random values and whose every unreferenced entry — the other triangle,
// and the diagonal when diag is Unit — is NaN, so any read of it poisons
// the result.
func poisonedTri(rng *rand.Rand, n int, uplo Uplo, diag Diag) *mat.Matrix {
	t := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			off := (uplo == Upper && j < i) || (uplo == Lower && j > i)
			switch {
			case off, i == j && diag == Unit:
				t.Set(i, j, math.NaN())
			case i == j:
				t.Set(i, j, (2+rng.Float64())*float64(1-2*rng.Intn(2)))
			default:
				t.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return t
}

// trmmTol bounds the difference between two summation orders of an order-n
// triangular product of standard normal operands.
func trmmTol(n int) float64 { return 1e-14 * float64(n+1) * math.Sqrt(float64(n+1)) }

// TestTrmmAllVariants checks Trmm (in place) and TrmmAdd (accumulating) for
// every side/uplo/trans/diag combination against the basic loop, at orders
// that cover the micro-tile fringes, one and several micro-panels, the
// production tile order 192 and the blocked path past gemmKC, and widths
// from a single vector to more than one gemmNC slab (and, on the Right,
// more than one gemmMC row block). T is NaN-poisoned outside what it may
// read.
func TestTrmmAllVariants(t *testing.T) {
	checkTrmmGrid(t, []int{1, 5, 6, 7, 8, 33, 100, 192, 257, 300}, []int{1, 7, 192, 600})
}

// TestTrmmPortableKernel reruns the grid under the portable 4×4
// micro-kernel, whose panel geometry differs from the host kernel's.
func TestTrmmPortableKernel(t *testing.T) {
	withKernel(4, 4, kernelGeneric4x4, func() {
		checkTrmmGrid(t, []int{1, 5, 6, 7, 33, 257}, []int{1, 7, 600})
	})
}

func checkTrmmGrid(t *testing.T, orders, widths []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(10))
	for _, n := range orders {
		for _, w := range widths {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []Uplo{Upper, Lower} {
					for _, trans := range []Transpose{NoTrans, Trans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							name := fmt.Sprintf("n=%d w=%d side=%v uplo=%v trans=%v diag=%v", n, w, side, uplo, trans, diag)
							tm := poisonedTri(rng, n, uplo, diag)
							var b *mat.Matrix
							if side == Left {
								b = randMat(rng, n, w)
							} else {
								b = randMat(rng, w, n)
							}
							want := b.Clone()
							trmmBasic(side, uplo, trans, diag, -1.5, tm, want)

							got := b.Clone()
							Trmm(side, uplo, trans, diag, -1.5, tm, got)
							if d := mat.MaxDiff(got, want); !(d <= trmmTol(n)) || !got.IsFinite() {
								t.Fatalf("Trmm %s: diff %g", name, d)
							}

							c := randMat(rng, b.Rows, b.Cols)
							acc := c.Clone()
							TrmmAdd(side, uplo, trans, diag, -1.5, tm, b, acc)
							for i := range want.Data {
								want.Data[i] += c.Data[i]
							}
							if d := mat.MaxDiff(acc, want); !(d <= trmmTol(n)) || !acc.IsFinite() {
								t.Fatalf("TrmmAdd %s: diff %g", name, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrmmOnViews runs the packed path on strided views, in place and
// accumulating, so stride and offset handling are exercised.
func TestTrmmOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, w := 45, 29
	big := randMat(rng, 80, 90)
	tm := poisonedTri(rng, n, Lower, Unit)
	for _, side := range []Side{Left, Right} {
		var b *mat.Matrix
		if side == Left {
			b = big.View(3, 5, n, w)
		} else {
			b = big.View(3, 5, w, n)
		}
		want := b.Clone()
		trmmBasic(side, Lower, Trans, Unit, 2, tm, want)
		Trmm(side, Lower, Trans, Unit, 2, tm, b)
		if d := mat.MaxDiff(b, want); !(d <= trmmTol(n)) {
			t.Fatalf("Trmm side=%v on a view: diff %g", side, d)
		}
	}
}

// TestTrmmZeroAlloc pins the steady-state zero-allocation contract of the
// packed TRMM at the production tile order: both sides, in place and
// accumulating.
func TestTrmmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked in non-race runs")
	}
	rng := rand.New(rand.NewSource(14))
	const nb = 192
	tm := randTri(rng, nb, Upper, NonUnit)
	b, c := randMat(rng, nb, nb), randMat(rng, nb, nb)
	for name, run := range map[string]func(){
		"left":     func() { Trmm(Left, Upper, Trans, NonUnit, 1, tm, b) },
		"right":    func() { Trmm(Right, Upper, NoTrans, NonUnit, 1, tm, b) },
		"left-add": func() { TrmmAdd(Left, Upper, NoTrans, Unit, -1, tm, b, c) },
	} {
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("Trmm %s nb=%d: %v allocs/op, want 0", name, nb, allocs)
		}
	}
}

func BenchmarkTrmm(b *testing.B) {
	const nb = 192
	for _, side := range []Side{Left, Right} {
		b.Run(fmt.Sprintf("side=%v/nb=%d", side, nb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			tm := randTri(rng, nb, Upper, NonUnit)
			x := randMat(rng, nb, nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Trmm(side, Upper, Trans, NonUnit, 0.5, tm, x)
			}
			b.StopTimer()
			gf := float64(nb) * float64(nb) * float64(nb) / 1e9
			b.ReportMetric(gf*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}
