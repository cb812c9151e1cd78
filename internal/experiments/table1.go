package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
)

// KernelCost is one row of Table I: a kernel, its model cost in units of
// nb³ flops, and the measured execution time of this library's
// implementation.
type KernelCost struct {
	Kernel     string
	ModelUnits float64 // Table I: flops / nb³
	MeasuredMs float64
	// MeasuredUnits normalizes the measured time by the GEMM rate
	// (GEMM ≡ 2 units), showing how close the pure-Go kernels come to the
	// model's relative costs.
	MeasuredUnits float64
}

// Table1 reproduces Table I: the per-kernel operation counts (in units of
// nb³) together with measured kernel timings at the given tile size.
func Table1(nb int, reps int, out io.Writer) []KernelCost {
	if nb <= 0 {
		nb = 120
	}
	if reps <= 0 {
		reps = 5
	}
	rng := rand.New(rand.NewSource(99))
	unit := float64(nb) * float64(nb) * float64(nb)
	measure := func(setup func() func()) float64 {
		best := 0.0
		for r := 0; r < reps; r++ {
			f := setup()
			t0 := time.Now()
			f()
			d := time.Since(t0).Seconds()
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	costs := []KernelCost{
		{Kernel: "GETRF", ModelUnits: flops.Getrf(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			a := randTile(rng, nb)
			return func() { _, _ = lapack.Getrf(a) }
		})},
		{Kernel: "TRSM", ModelUnits: flops.Trsm(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			tt, b := upperTile(rng, nb), randTile(rng, nb)
			return func() { blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tt, b) }
		})},
		{Kernel: "GEMM", ModelUnits: flops.Gemm(nb, nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			a, b, c := randTile(rng, nb), randTile(rng, nb), randTile(rng, nb)
			return func() { blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c) }
		})},
		{Kernel: "GEQRT", ModelUnits: flops.Geqrt(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			a, t := randTile(rng, nb), mat.New(nb, nb)
			return func() { lapack.Geqrt(a, t) }
		})},
		{Kernel: "TSQRT", ModelUnits: flops.Tsqrt(nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			r, a, t := upperTile(rng, nb), randTile(rng, nb), mat.New(nb, nb)
			return func() { lapack.Tsqrt(r, a, t) }
		})},
		{Kernel: "TSMQR", ModelUnits: flops.Tsmqr(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			r, a, t := upperTile(rng, nb), randTile(rng, nb), mat.New(nb, nb)
			lapack.Tsqrt(r, a, t)
			c1, c2 := randTile(rng, nb), randTile(rng, nb)
			return func() { lapack.Tsmqr(blas.Trans, a, t, c1, c2) }
		})},
		{Kernel: "UNMQR", ModelUnits: flops.Unmqr(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			a, t := randTile(rng, nb), mat.New(nb, nb)
			lapack.Geqrt(a, t)
			c := randTile(rng, nb)
			return func() { lapack.Unmqr(blas.Trans, a, t, c) }
		})},
		{Kernel: "TTQRT", ModelUnits: flops.Ttqrt(nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			r1, r2, t := upperTile(rng, nb), upperTile(rng, nb), mat.New(nb, nb)
			return func() { lapack.Ttqrt(r1, r2, t) }
		})},
		{Kernel: "TTMQR", ModelUnits: flops.Ttmqr(nb, nb) / unit, MeasuredMs: 1e3 * measure(func() func() {
			r1, r2, t := upperTile(rng, nb), upperTile(rng, nb), mat.New(nb, nb)
			lapack.Ttqrt(r1, r2, t)
			c1, c2 := randTile(rng, nb), randTile(rng, nb)
			return func() { lapack.Ttmqr(blas.Trans, r2, t, c1, c2) }
		})},
	}

	// Normalize measured times so GEMM ≡ its model 2 units.
	var gemmMs float64
	for _, c := range costs {
		if c.Kernel == "GEMM" {
			gemmMs = c.MeasuredMs
		}
	}
	for i := range costs {
		if gemmMs > 0 {
			costs[i].MeasuredUnits = costs[i].MeasuredMs / gemmMs * 2
		}
	}

	if out != nil {
		fmt.Fprintf(out, "# Table I — kernel costs at nb=%d (units of nb³ flops; measured on this host, GEMM ≡ 2)\n", nb)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "kernel\tmodel units\tmeasured ms\tmeasured units")
		for _, c := range costs {
			fmt.Fprintf(w, "%s\t%.3f\t%.2f\t%.2f\n", c.Kernel, c.ModelUnits, c.MeasuredMs, c.MeasuredUnits)
		}
		w.Flush()
	}
	return costs
}
