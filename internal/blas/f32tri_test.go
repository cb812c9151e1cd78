package blas

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/mat"
)

// Pinning tests for the packed f32 triangular paths: Trmm32 packs op(T)
// from its stored triangle into the micro-kernel's panels (trmm32.go);
// Trsm32 recurses with packed GEMM couplings. Both must agree with the scalar basic kernels at float32
// resolution (accumulation order differs, so agreement is tolerance-gated),
// and the resident siblings must stay bit-identical through the new paths.

// TestTrmm32PackedMatchesBasic drives every Trmm32 variant at orders that
// span one and several micro-panels and compares against trmmBasic32 on
// the same data; the resident Trmm32R must match Trmm32 bit-for-bit.
func TestTrmm32PackedMatchesBasic(t *testing.T) {
	check := func(t *testing.T, orders []int) {
		rng := rand.New(rand.NewSource(211))
		for _, n := range orders {
			for _, w := range []int{1, 7, 33} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Lower, Upper} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := randTri(rng, n, uplo, diag)
								br, bc := n, w
								if side == Right {
									br, bc = w, n
								}
								b := randMat(rng, br, bc)
								want := b.Clone()
								trmmBasic32(side, uplo, trans, diag, -0.5, tm, want)
								got := b.Clone()
								Trmm32(side, uplo, trans, diag, -0.5, tm, got)
								tol := 1e-4 * float64(n)
								if d := mat.MaxDiff(got, want); d > tol {
									t.Fatalf("Trmm32 packed n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
										n, w, side, uplo, trans, diag, d, tol)
								}
								t32, b32 := roundTo32(tm), roundTo32(b)
								Trmm32R(side, uplo, trans, diag, -0.5, t32, b32)
								matchWidened(t, "Trmm32R packed", b32, got)
							}
						}
					}
				}
			}
		}
	}
	t.Run("hostKernel", func(t *testing.T) { check(t, []int{16, 40, 96}) })
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() { check(t, []int{16, 40}) })
	})
}

// TestTrmm32PackedIgnoresOffTriangle poisons the unused half of T (and, for
// Unit, the diagonal) with NaN and requires the packed path to reproduce the
// basic kernel exactly as if the poison were absent — the packing must never
// read outside the stored triangle. This is the contract the QR
// update kernels rely on: the V factor's super-diagonal holds R values.
func TestTrmm32PackedIgnoresOffTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	n, w := 40, 7
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					tm := randTri(rng, n, uplo, diag)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							off := (uplo == Lower && j > i) || (uplo == Upper && j < i)
							if off || (diag == Unit && i == j) {
								tm.Set(i, j, math.NaN())
							}
						}
					}
					br, bc := n, w
					if side == Right {
						br, bc = w, n
					}
					b := randMat(rng, br, bc)
					want := b.Clone()
					trmmBasic32(side, uplo, trans, diag, 1, tm, want)
					got := b.Clone()
					Trmm32(side, uplo, trans, diag, 1, tm, got)
					tol := 1e-4 * float64(n)
					if d := mat.MaxDiff(got, want); d > tol || got.NormMax() != got.NormMax() {
						t.Fatalf("Trmm32 poisoned n=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g (NaN leak?)",
							n, side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

// TestTrsm32RecursiveMatchesBasic drives every Trsm32 variant at orders
// above the recursion leaf and compares against a pure trsmBasic32 solve;
// the resident Trsm32R must match Trsm32 bit-for-bit.
func TestTrsm32RecursiveMatchesBasic(t *testing.T) {
	check := func(t *testing.T, orders []int) {
		rng := rand.New(rand.NewSource(227))
		for _, n := range orders {
			for _, w := range []int{1, 7} {
				for _, side := range []Side{Left, Right} {
					for _, uplo := range []Uplo{Lower, Upper} {
						for _, trans := range []Transpose{NoTrans, Trans} {
							for _, diag := range []Diag{NonUnit, Unit} {
								tm := randTri(rng, n, uplo, diag)
								br, bc := n, w
								if side == Right {
									br, bc = w, n
								}
								b := randMat(rng, br, bc)
								want := b.Clone()
								trsmBasic32(side, uplo, trans, diag, tm, want)
								got := b.Clone()
								Trsm32(side, uplo, trans, diag, 1, tm, got)
								xnorm := 1.0
								for i := 0; i < want.Rows; i++ {
									for _, v := range want.Row(i) {
										if a := math.Abs(v); a > xnorm {
											xnorm = a
										}
									}
								}
								tol := 1e-4 * float64(n) * xnorm
								if d := mat.MaxDiff(got, want); d > tol {
									t.Fatalf("Trsm32 recursive n=%d w=%d side=%v uplo=%v trans=%v diag=%v maxdiff %g > %g",
										n, w, side, uplo, trans, diag, d, tol)
								}
								t32, b32 := roundTo32(tm), roundTo32(b)
								Trsm32R(side, uplo, trans, diag, 1, t32, b32)
								// With alpha=1 an element the solve never
								// touches stays raw f64 in got but was
								// pre-rounded in b32, so bit-compare after
								// rounding: the resident result must equal
								// float32(converting result) everywhere.
								for i := 0; i < got.Rows; i++ {
									for j := 0; j < got.Cols; j++ {
										if b32.At(i, j) != float32(got.At(i, j)) {
											t.Fatalf("Trsm32R recursive n=%d: (%d,%d) resident %v != converting %v",
												n, i, j, b32.At(i, j), got.At(i, j))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	t.Run("hostKernel", func(t *testing.T) { check(t, []int{trsmRecLeaf + 1, 40, 96}) })
	t.Run("portableKernel", func(t *testing.T) {
		withKernel32(4, 4, kernelGeneric4x4f32, func() { check(t, []int{trsmRecLeaf + 1, 40}) })
	})
}
