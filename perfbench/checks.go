package main

import (
	"fmt"
	"math"
	"math/rand"

	"luqr/internal/core"
	"luqr/internal/mat"
	"luqr/internal/matgen"
)

// hpl3Limit is the paper's acceptance band: a solution whose HPL3 backward
// error exceeds it is a failed answer.
const hpl3Limit = 16

// operator generates the workload's n×n operator from seed. The same seed
// always gives the same matrix, so answers can be checked against a fresh
// copy rather than against the one the solver was handed.
func operator(gen string, n int, seed int64) (*mat.Matrix, error) {
	e, err := matgen.ByName(gen)
	if err != nil {
		return nil, err
	}
	return e.Gen(n, rand.New(rand.NewSource(seed))), nil
}

// rhsVector is the right-hand side with the given seed.
func rhsVector(n int, seed int64) []float64 {
	return matgen.RandomVector(n, rand.New(rand.NewSource(seed)))
}

// checkSolution reports an error unless x solves a·x = b inside the HPL3
// band.
func checkSolution(a *mat.Matrix, x, b []float64) error {
	if len(x) != a.Rows {
		return fmt.Errorf("solution has %d entries, want %d", len(x), a.Rows)
	}
	h := mat.HPL3(a, x, b)
	if math.IsNaN(h) || h > hpl3Limit {
		return fmt.Errorf("HPL3 %.3g outside the band (limit %d)", h, hpl3Limit)
	}
	return nil
}

// checkShape reports an error unless a factorization's report has the shape
// the workload is built to produce: QR steps on the random operators, an
// all-LU all-float32 run on the diagonally dominant one, and float32 epochs
// when float32 is forced.
func (w workload) checkShape(r *core.Report) error {
	steps := r.LUSteps + r.QRSteps
	switch {
	case r.Breakdown:
		return fmt.Errorf("breakdown")
	case w.wantQR && r.QRSteps == 0:
		return fmt.Errorf("no QR step in %d steps", steps)
	case w.wantAllF32 && (r.QRSteps != 0 || r.F32Steps != steps):
		return fmt.Errorf("%d QR steps and %d float32 steps of %d, want 0 and all", r.QRSteps, r.F32Steps, steps)
	case w.wantEpochs && r.F32Epochs == 0:
		return fmt.Errorf("no float32 epoch opened")
	}
	return nil
}

// sameBits reports an error unless x and y are bit-identical.
func sameBits(x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("lengths %d and %d differ", len(x), len(y))
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return fmt.Errorf("entry %d differs: %v vs %v", i, x[i], y[i])
		}
	}
	return nil
}
