package core

import (
	"math"
	"math/rand"
	"testing"

	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/tile"
)

func TestParsePrecision(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionAuto, PrecisionF32} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePrecision(""); err != nil || p != PrecisionF64 {
		t.Fatalf("ParsePrecision(\"\") = %v, %v", p, err)
	}
	if _, err := ParsePrecision("half"); err == nil {
		t.Fatal("ParsePrecision(\"half\") accepted")
	}
}

// TestPrecisionResetForUnsupportedAlgorithms checks withDefaults silently
// falls back to f64 where the precision layer has no kernel coverage.
func TestPrecisionResetForUnsupportedAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 32
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{LUIncPiv, CALU, HLU} {
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Precision: PrecisionF32})
		if res.Report.Precision != PrecisionF64 || res.Report.F32Steps != 0 {
			t.Fatalf("%v: precision not reset (prec=%v, f32 steps=%d)", alg, res.Report.Precision, res.Report.F32Steps)
		}
	}
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Variant: VarB1, Precision: PrecisionF32})
	if res.Report.Precision != PrecisionF64 {
		t.Fatalf("LUQR (B1): precision not reset, got %v", res.Report.Precision)
	}
}

// TestForcedF32RefinesToTolerance forces every kernel through the float32
// path and checks the refined solve lands inside the HPL acceptance band —
// the raw f32 solution sits many orders of magnitude above it, so passing
// proves both that f32 kernels ran and that refinement recovered the
// accuracy.
func TestForcedF32RefinesToTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 96
	b := matgen.RandomVector(n, rng)
	for _, alg := range []Algorithm{LUQR, LUNoPiv, LUPP, HQR} {
		a := matgen.DiagDominant(n, rng)
		res := runOn(t, a, b, Config{Alg: alg, NB: 16, Grid: tile.NewGrid(2, 2), Precision: PrecisionF32})
		r := res.Report
		if r.Precision != PrecisionF32 {
			t.Fatalf("%v: report precision = %v", alg, r.Precision)
		}
		if r.F32Steps == 0 {
			t.Fatalf("%v: no f32 steps under PrecisionF32 (demotions=%d)", alg, r.Demotions)
		}
		if r.RefineIters == 0 {
			t.Fatalf("%v: f32 run performed no refinement", alg)
		}
		if math.IsNaN(r.HPL3) || r.HPL3 > refineHPL3Tol {
			t.Fatalf("%v: refined HPL3 = %g > %g (f32 steps=%d, iters=%d)", alg, r.HPL3, refineHPL3Tol, r.F32Steps, r.RefineIters)
		}
	}
}

// TestAutoSelectsF32OnComfortableMargins runs the hybrid in auto mode on a
// diagonally dominant system, where the criterion margin is far below the
// threshold: the LU steps must pick up float32 kernels, the margins must be
// recorded, and the solution must stay in the acceptance band.
func TestAutoSelectsF32OnComfortableMargins(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 96
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{
		Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 10000},
		Precision: PrecisionAuto,
	})
	r := res.Report
	if r.F32Steps == 0 {
		t.Fatalf("auto mode picked no f32 steps (margins=%v)", r.Margins)
	}
	count := 0
	for k, f32 := range r.StepF32 {
		if f32 {
			count++
			if !(r.Margins[k] <= DefaultF32Margin) {
				t.Fatalf("step %d ran f32 with margin %g > %g", k, r.Margins[k], DefaultF32Margin)
			}
			if !r.Decisions[k] {
				t.Fatalf("step %d ran f32 on a QR decision in auto mode", k)
			}
		}
	}
	if count != r.F32Steps {
		t.Fatalf("StepF32 count %d != F32Steps %d", count, r.F32Steps)
	}
	if math.IsNaN(r.MarginMin) || math.IsNaN(r.MarginMax) || r.MarginMin > r.MarginMax {
		t.Fatalf("margin summary broken: min=%g max=%g", r.MarginMin, r.MarginMax)
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > refineHPL3Tol {
		t.Fatalf("auto HPL3 = %g > %g", r.HPL3, refineHPL3Tol)
	}
}

// TestMixedAutoWithin10xOfF64 is the accuracy property of the mixed path:
// over well- and ill-conditioned matrix classes, auto mode plus refinement
// must land within 10× of the pure-f64 backward error or inside the HPL
// acceptance band (refinement's declared target), whichever is looser. On
// the ill-conditioned classes the criterion margin is uncomfortable and
// auto quietly stays at f64 — that retreat is part of the property.
func TestMixedAutoWithin10xOfF64(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 64
	gens := map[string]*mat.Matrix{
		"diagdom":      matgen.DiagDominant(n, rng),
		"random":       matgen.Random(n, rng),
		"randsvd-1e10": matgen.RandSVD(n, 1e10, matgen.SigmaGeometric, rng),
		"foster":       matgen.Foster(n),
		"condex":       matgen.Condex(n),
		"fiedler":      matgen.Fiedler(n),
	}
	for name, a := range gens {
		b := matgen.RandomVector(n, rng)
		cfg := Config{Alg: LUQR, NB: 16, Criterion: criteria.Max{Alpha: 100}}
		ref := runOn(t, a, b, cfg)
		cfg.Precision = PrecisionAuto
		mixed := runOn(t, a, b, cfg)
		limit := math.Max(10*ref.Report.HPL3, refineHPL3Tol)
		if math.IsNaN(mixed.Report.HPL3) || mixed.Report.HPL3 > limit {
			t.Errorf("%s: mixed HPL3 = %g vs f64 %g (limit %g, f32 steps=%d, demotions=%d)",
				name, mixed.Report.HPL3, ref.Report.HPL3, limit, mixed.Report.F32Steps, mixed.Report.Demotions)
		}
		// No accepted excursion may survive in the factors.
		for i := 0; i < mixed.Factored.MT; i++ {
			for j := 0; j < mixed.Factored.NT; j++ {
				if v := mixed.Factored.Tile(i, j).NormMax(); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite factor tile (%d,%d)", name, i, j)
				}
			}
		}
	}
}

// TestF32ExcursionDemotes feeds the forced-f32 path a matrix whose entries
// overflow float32 outright: every f32 kernel must detect the excursion,
// demote to f64, and the run must come out as accurate as pure f64 — the
// zero-accepted-excursions guarantee at its most extreme.
func TestF32ExcursionDemotes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 48
	a := matgen.DiagDominant(n, rng)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)*1e200) // well past float32 overflow
		}
	}
	xTrue := matgen.RandomVector(n, rng)
	b := mat.MulVec(a, xTrue)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32})
	r := res.Report
	if r.Demotions == 0 {
		t.Fatal("no demotions on a float32-overflowing matrix")
	}
	if r.F32Steps != 0 {
		t.Fatalf("%d steps kept their f32 flag after panel overflow", r.F32Steps)
	}
	if math.IsNaN(r.HPL3) || r.HPL3 > 50 {
		t.Fatalf("demoted run HPL3 = %g", r.HPL3)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6*(1+math.Abs(xTrue[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], xTrue[i])
		}
	}
}

// TestSolveBatchRefinedNewRHS factors once at forced f32 and solves fresh
// right-hand sides: SolveBatchRefined must refine each column into the
// acceptance band, and SolveBatch must return exactly the refined columns.
func TestSolveBatchRefinedNewRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := 80
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32})
	if res.Report.F32Steps == 0 {
		t.Fatal("no f32 steps to exercise the refined solve")
	}
	bs := [][]float64{matgen.RandomVector(n, rng), matgen.RandomVector(n, rng), matgen.RandomVector(n, rng)}
	xs, iters, err := res.SolveBatchRefined(bs)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Fatal("SolveBatchRefined did no refinement on an f32 factorization")
	}
	for j := range xs {
		if h := mat.HPL3(a, xs[j], bs[j]); math.IsNaN(h) || h > refineHPL3Tol {
			t.Fatalf("column %d: refined HPL3 = %g > %g", j, h, refineHPL3Tol)
		}
	}
	xs2, err := res.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	for j := range xs2 {
		for i := range xs2[j] {
			if xs2[j][i] != xs[j][i] {
				t.Fatalf("SolveBatch diverges from SolveBatchRefined at (%d,%d)", j, i)
			}
		}
	}
}

// TestMixedPaddedSystem checks the precision layer composes with the
// §II-D.2 padding path (N not a multiple of NB).
func TestMixedPaddedSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	n := 75 // pads to 80 with NB=16
	a := matgen.DiagDominant(n, rng)
	b := matgen.RandomVector(n, rng)
	res := runOn(t, a, b, Config{Alg: LUQR, NB: 16, Precision: PrecisionF32})
	if res.Report.F32Steps == 0 {
		t.Fatal("padded run took no f32 steps")
	}
	if math.IsNaN(res.Report.HPL3) || res.Report.HPL3 > refineHPL3Tol {
		t.Fatalf("padded mixed HPL3 = %g", res.Report.HPL3)
	}
	x2, err := res.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if h := mat.HPL3(a, x2, b); math.IsNaN(h) || h > refineHPL3Tol {
		t.Fatalf("padded refined re-solve HPL3 = %g", h)
	}
}

// TestPaddedF32RefinesAtOriginalOrder pins the refinement bound of a padded
// float32 system: the live answer and a replay through an encoded and
// decoded factorization must both reach HPL3 ≤ refineHPL3Tol at the
// caller's order N. Refinement once judged the padded system, whose HPL3
// divides by the larger order and so reads smaller by up to Npad/N; these
// orders and seeds include Gaussian operators that stopped early at
// original-order HPL3 between 16 and 29.
func TestPaddedF32RefinesAtOriginalOrder(t *testing.T) {
	for _, sz := range []struct{ n, nb int }{{65, 64}, {200, 32}} {
		for seed := int64(1); seed <= 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := matgen.Random(sz.n, rng)
			b := matgen.RandomVector(sz.n, rng)
			cfg := Config{Alg: LUQR, NB: sz.nb, Grid: tile.NewGrid(2, 2), Criterion: criteria.Max{Alpha: 100},
				Workers: 2, Precision: PrecisionF32}
			res := runOn(t, a, b, cfg)
			if res.Report.F32Steps == 0 {
				t.Fatalf("n=%d nb=%d seed=%d: no f32 steps", sz.n, sz.nb, seed)
			}
			if h := res.Report.HPL3; !(h <= refineHPL3Tol) {
				t.Errorf("n=%d nb=%d seed=%d: live HPL3 %.3g > %g", sz.n, sz.nb, seed, h, refineHPL3Tol)
			}
			data, err := res.EncodeFactorization()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeFactorization(data)
			if err != nil {
				t.Fatal(err)
			}
			xs, _, err := dec.SolveBatchRefined([][]float64{b})
			if err != nil {
				t.Fatal(err)
			}
			if h := mat.HPL3(a, xs[0], b); !(h <= refineHPL3Tol) {
				t.Errorf("n=%d nb=%d seed=%d: decoded replay HPL3 %.3g > %g", sz.n, sz.nb, seed, h, refineHPL3Tol)
			}
		}
	}
}
