package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"luqr/internal/mat"
)

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randTri returns a well-conditioned triangular matrix (diagonal bumped away
// from zero so triangular solves stay accurate).
func randTri(rng *rand.Rand, n int, uplo Uplo, diag Diag) *mat.Matrix {
	t := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
			if !inTri {
				continue
			}
			if i == j {
				if diag == Unit {
					// Storage outside the implicit unit diagonal may hold
					// garbage; put junk there to verify it is ignored.
					t.Set(i, j, rng.NormFloat64())
				} else {
					t.Set(i, j, 2+rng.Float64())
					if rng.Intn(2) == 0 {
						t.Set(i, j, -t.At(i, j))
					}
				}
			} else {
				t.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return t
}

// naiveGemm is the O(mnk) reference used to validate the blocked kernel.
func naiveGemm(transA, transB Transpose, alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	m, k := opShape(a, transA)
	_, n := opShape(b, transB)
	av := func(i, p int) float64 {
		if transA == Trans {
			return a.At(p, i)
		}
		return a.At(i, p)
	}
	bv := func(p, j int) float64 {
		if transB == Trans {
			return b.At(j, p)
		}
		return b.At(p, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += av(i, p) * bv(p, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestDotAxpyScalIamax(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if Dot(x, y) != 4-10+18 {
		t.Fatalf("Dot = %g", Dot(x, y))
	}
	Axpy(2, x, y) // y = {6,-1,12}
	if y[0] != 6 || y[1] != -1 || y[2] != 12 {
		t.Fatalf("Axpy got %v", y)
	}
	Scal(0.5, y)
	if y[0] != 3 || y[1] != -0.5 || y[2] != 6 {
		t.Fatalf("Scal got %v", y)
	}
	if Iamax([]float64{1, -7, 7, 2}) != 1 {
		t.Fatal("Iamax must return the first index of max abs")
	}
}

func TestAxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{1, 2}
	Axpy(0, []float64{math.NaN(), math.NaN()}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("Axpy with alpha=0 must not touch y")
	}
}

func TestGerMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 4, 3)
	want := a.Clone()
	x := []float64{1, -2, 0, 3}
	y := []float64{2, 5, -1}
	Ger(1.5, x, y, a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			exp := want.At(i, j) + 1.5*x[i]*y[j]
			if math.Abs(a.At(i, j)-exp) > 1e-14 {
				t.Fatalf("Ger (%d,%d) = %g, want %g", i, j, a.At(i, j), exp)
			}
		}
	}
}

func TestGemvBothTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 5, 3)
	x3 := []float64{1, 2, 3}
	x5 := []float64{1, -1, 2, -2, 0.5}
	y := make([]float64, 5)
	Gemv(NoTrans, 1, a, x3, 0, y)
	want := mat.MulVec(a, x3)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Fatalf("Gemv NoTrans mismatch at %d", i)
		}
	}
	y2 := make([]float64, 3)
	Gemv(Trans, 2, a, x5, 0, y2)
	wantT := mat.MulVec(a.T(), x5)
	for i := range y2 {
		if math.Abs(y2[i]-2*wantT[i]) > 1e-13 {
			t.Fatalf("Gemv Trans mismatch at %d: %g vs %g", i, y2[i], 2*wantT[i])
		}
	}
	// beta path: y = 1·A·x + 3·y0
	y3 := []float64{1, 1, 1, 1, 1}
	Gemv(NoTrans, 1, a, x3, 3, y3)
	for i := range y3 {
		if math.Abs(y3[i]-(want[i]+3)) > 1e-13 {
			t.Fatalf("Gemv beta mismatch at %d", i)
		}
	}
}

func TestGemmAgainstNaiveAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 6}, {64, 64, 64}, {65, 70, 67}, {130, 40, 90}}
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			for _, d := range dims {
				m, n, k := d[0], d[1], d[2]
				var a, b *mat.Matrix
				if ta == NoTrans {
					a = randMat(rng, m, k)
				} else {
					a = randMat(rng, k, m)
				}
				if tb == NoTrans {
					b = randMat(rng, k, n)
				} else {
					b = randMat(rng, n, k)
				}
				c0 := randMat(rng, m, n)
				got := c0.Clone()
				want := c0.Clone()
				alpha, beta := 1.3, -0.7
				Gemm(ta, tb, alpha, a, b, beta, got)
				naiveGemm(ta, tb, alpha, a, b, beta, want)
				if d := mat.MaxDiff(got, want); d > 1e-10*float64(k) {
					t.Fatalf("Gemm ta=%v tb=%v %v: maxdiff %g", ta, tb, d, d)
				}
			}
		}
	}
}

func TestGemmBetaZeroIgnoresNaNInC(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 3, 3)
	b := randMat(rng, 3, 3)
	c := mat.New(3, 3)
	c.Fill(math.NaN())
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if !c.IsFinite() {
		t.Fatal("Gemm with beta=0 must overwrite NaNs in C")
	}
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 3, 3)
	b := randMat(rng, 3, 3)
	c := randMat(rng, 3, 3)
	want := c.Clone()
	Gemm(NoTrans, NoTrans, 0, a, b, 2, c)
	for i := range want.Data {
		want.Data[i] *= 2
	}
	if mat.MaxDiff(c, want) > 1e-15 {
		t.Fatal("Gemm alpha=0 should only scale C by beta")
	}
}

func TestGemmOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	big := randMat(rng, 10, 10)
	a := big.View(0, 0, 4, 4)
	b := big.View(4, 4, 4, 4)
	c := mat.New(4, 4)
	want := mat.New(4, 4)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	naiveGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	if mat.MaxDiff(c, want) > 1e-12 {
		t.Fatal("Gemm on strided views is wrong")
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a, b, c := randMat(rng, n, n), randMat(rng, n, n), randMat(rng, n, n)
		ab := mat.New(n, n)
		Gemm(NoTrans, NoTrans, 1, a, b, 0, ab)
		abc1 := mat.New(n, n)
		Gemm(NoTrans, NoTrans, 1, ab, c, 0, abc1)
		bc := mat.New(n, n)
		Gemm(NoTrans, NoTrans, 1, b, c, 0, bc)
		abc2 := mat.New(n, n)
		Gemm(NoTrans, NoTrans, 1, a, bc, 0, abc2)
		return mat.MaxDiff(abc1, abc2) < 1e-10*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTrsvAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				n := 8
				tm := randTri(rng, n, uplo, diag)
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				b := make([]float64, n)
				copy(b, x)
				Trsv(uplo, trans, diag, tm, b)
				// Verify op(T)·b == x using an explicit multiply honoring diag.
				y := make([]float64, n)
				for i := 0; i < n; i++ {
					s := 0.0
					for j := 0; j < n; j++ {
						ii, jj := i, j
						if trans == Trans {
							ii, jj = j, i
						}
						inTri := (uplo == Lower && jj <= ii) || (uplo == Upper && jj >= ii)
						v := 0.0
						if inTri {
							v = tm.At(ii, jj)
						}
						if ii == jj && diag == Unit {
							v = 1
						}
						s += v * b[j]
					}
					y[i] = s
				}
				for i := range y {
					if math.Abs(y[i]-x[i]) > 1e-9 {
						t.Fatalf("Trsv uplo=%v trans=%v diag=%v residual %g at %d", uplo, trans, diag, y[i]-x[i], i)
					}
				}
			}
		}
	}
}

// applyTri computes op(T)·B or B·op(T) honoring the implicit unit diagonal,
// as a reference for Trsm/Trmm tests.
func applyTri(side Side, uplo Uplo, trans Transpose, diag Diag, tm, b *mat.Matrix) *mat.Matrix {
	n := tm.Rows
	full := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
			v := 0.0
			if inTri {
				v = tm.At(i, j)
			}
			if i == j && diag == Unit {
				v = 1
			}
			full.Set(i, j, v)
		}
	}
	out := mat.New(b.Rows, b.Cols)
	if side == Left {
		naiveGemm(trans, NoTrans, 1, full, b, 0, out)
	} else {
		naiveGemm(NoTrans, trans, 1, b, full, 0, out)
	}
	return out
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					n := 6
					var b *mat.Matrix
					if side == Left {
						b = randMat(rng, n, 9)
					} else {
						b = randMat(rng, 9, n)
					}
					tm := randTri(rng, n, uplo, diag)
					x := b.Clone()
					Trsm(side, uplo, trans, diag, 1, tm, x)
					// op(T)·X (or X·op(T)) must reproduce B.
					back := applyTri(side, uplo, trans, diag, tm, x)
					if d := mat.MaxDiff(back, b); d > 1e-9 {
						t.Fatalf("Trsm side=%v uplo=%v trans=%v diag=%v residual %g", side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestTrsmAlphaScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 5
	tm := randTri(rng, n, Upper, NonUnit)
	b := randMat(rng, n, 3)
	x1 := b.Clone()
	Trsm(Left, Upper, NoTrans, NonUnit, 2, tm, x1)
	x2 := b.Clone()
	Trsm(Left, Upper, NoTrans, NonUnit, 1, tm, x2)
	for i := range x2.Data {
		x2.Data[i] *= 2
	}
	if mat.MaxDiff(x1, x2) > 1e-10 {
		t.Fatal("Trsm alpha scaling incorrect")
	}
}

func TestTrsmTrmmRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		uplo := Uplo(rng.Intn(2))
		diag := Diag(rng.Intn(2))
		side := Side(rng.Intn(2))
		trans := Transpose(rng.Intn(2))
		tm := randTri(rng, n, uplo, diag)
		var b *mat.Matrix
		if side == Left {
			b = randMat(rng, n, 1+rng.Intn(6))
		} else {
			b = randMat(rng, 1+rng.Intn(6), n)
		}
		x := b.Clone()
		Trsm(side, uplo, trans, diag, 1, tm, x)
		Trmm(side, uplo, trans, diag, 1, tm, x)
		return mat.MaxDiff(x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
