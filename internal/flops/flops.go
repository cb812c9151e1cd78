// Package flops is the floating-point operation model of Table I of the
// paper. It assigns every tile kernel its classical LAPACK/PLASMA operation
// count (in the ib→0 inner-blocking limit, the convention Table I uses), and
// provides the whole-factorization totals used to normalize GFLOP/s:
//
//	kernel      units of nb³          kernel      units of nb³
//	GETRF       2/3                   GEQRT       4/3
//	TRSM        1                     TSQRT       2
//	GEMM        2                     TSMQR       4
//	SWPTRSM     1                     UNMQR       2
//	                                  TTQRT       2/3
//	                                  TTMQR       2
//
// The paper's "fake" GFLOP/s always charges the LU operation count
// (2/3·N³); "true" GFLOP/s charges (2/3·f + 4/3·(1−f))·N³ for a run whose
// fraction of LU steps is f (Table II).
package flops

// Getrf returns the flop count of an LU factorization with partial pivoting
// of an m×n panel (m ≥ n): m·n² − n³/3 (+ O(mn) ignored).
func Getrf(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

// Trsm returns the flop count of a triangular solve of order n applied to k
// right-hand sides: n²·k.
func Trsm(n, k int) float64 {
	return float64(n) * float64(n) * float64(k)
}

// Trmm returns the flop count of a triangular multiply of order n applied
// to k columns: n²·k.
func Trmm(n, k int) float64 {
	return float64(n) * float64(n) * float64(k)
}

// Gemm returns the flop count of an m×k by k×n multiply-accumulate: 2mnk.
func Gemm(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// Geqrt returns the flop count of a QR factorization of an m×n tile
// (m ≥ n): 2n²(m − n/3).
func Geqrt(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2 * fn * fn * (fm - fn/3)
}

// Tsqrt returns the flop count of the triangle-on-square QR of two nb×nb
// tiles: 2nb³.
func Tsqrt(nb int) float64 {
	f := float64(nb)
	return 2 * f * f * f
}

// Ttqrt returns the flop count of the triangle-on-triangle QR of two nb×nb
// tiles: (2/3)nb³.
func Ttqrt(nb int) float64 {
	f := float64(nb)
	return 2 * f * f * f / 3
}

// Unmqr returns the flop count of applying a GEQRT reflector block to one
// nb×k tile: 2nb²·k per side (≈ 2nb³ for k = nb).
func Unmqr(nb, k int) float64 {
	f := float64(nb)
	return 2 * f * f * float64(k)
}

// Tsmqr returns the flop count of applying a TSQRT reflector block to a
// stacked pair of nb×k tiles: 4nb²·k (≈ 4nb³ for k = nb).
func Tsmqr(nb, k int) float64 {
	f := float64(nb)
	return 4 * f * f * float64(k)
}

// Ttmqr returns the flop count of applying a TTQRT reflector block to a
// stacked pair of nb×k tiles: 2nb²·k.
func Ttmqr(nb, k int) float64 {
	f := float64(nb)
	return 2 * f * f * float64(k)
}

// LUTotal returns 2/3·N³, the operation count of LU with partial pivoting on
// an N×N matrix — the normalization used by the paper's "fake" GFLOP/s.
func LUTotal(n int) float64 {
	f := float64(n)
	return 2 * f * f * f / 3
}

// QRTotal returns 4/3·N³, the operation count of a QR factorization.
func QRTotal(n int) float64 {
	f := float64(n)
	return 4 * f * f * f / 3
}

// TrueTotal returns the paper's Table II "true" operation count for a hybrid
// run on an N×N matrix whose fraction of LU steps is fLU:
// (2/3·fLU + 4/3·(1−fLU))·N³.
func TrueTotal(n int, fLU float64) float64 {
	f := float64(n)
	return (2.0/3.0*fLU + 4.0/3.0*(1-fLU)) * f * f * f
}

// GFlops converts a flop count and a duration in seconds to GFLOP/s.
func GFlops(flops, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / seconds / 1e9
}
