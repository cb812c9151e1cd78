package experiments

import (
	"encoding/json"
	"io"
	"math/rand"
	"runtime"
	"time"

	"luqr/internal/blas"
	"luqr/internal/flops"
	"luqr/internal/lapack"
	"luqr/internal/mat"
)

// KernelBenchEntry is one machine-readable kernel measurement: the serial
// execution rate of one tile kernel at one tile order.
type KernelBenchEntry struct {
	Kernel  string  `json:"kernel"`
	NB      int     `json:"nb"`
	NsPerOp float64 `json:"ns_per_op"`
	GFlops  float64 `json:"gflops"`
}

// KernelBenchReport is the schema of BENCH_kernels.json: the committed seed
// baseline next to freshly measured numbers, so a regression (or a speedup)
// is visible from the file alone. Regenerate with
//
//	go run ./cmd/luqr-bench -json BENCH_kernels.json
type KernelBenchReport struct {
	Schema  int                `json:"schema"`
	Go      string             `json:"go"`
	GoArch  string             `json:"goarch"`
	Reps    int                `json:"reps"`
	Seed    []KernelBenchEntry `json:"seed_baseline"`
	Current []KernelBenchEntry `json:"current"`
}

// seedKernelBaseline records the kernel rates of the pre-packed-GEMM code
// (naive three-loop blocked Gemm) measured on the reference host — a
// single-core Intel Xeon @ 2.10GHz, go1.24, default GOAMD64=v1 — immediately
// before the BLIS-style rewrite. It is the fixed "before" of the
// before/after comparison; the "current" section is remeasured on every
// regeneration.
var seedKernelBaseline = []KernelBenchEntry{
	{Kernel: "GEMM", NB: 128, NsPerOp: 1458535, GFlops: 2.876},
	{Kernel: "GEMM", NB: 256, NsPerOp: 11028176, GFlops: 3.043},
}

// KernelBenchNBs are the tile orders measured by WriteKernelBench: the two
// seed-baseline sizes, the historical default experiment tile order (40),
// and the solver sweep's production default (192).
var KernelBenchNBs = []int{40, 128, 192, 256}

// WriteKernelBench measures every Table I kernel at each tile order in nbs
// and writes the JSON report (seed baseline + current) to out. GFLOP/s uses
// the Table I model flop counts, so rates are comparable across kernels.
func WriteKernelBench(nbs []int, reps int, out io.Writer) error {
	rep := KernelBenchReport{
		Schema: 1,
		Go:     runtime.Version(),
		GoArch: runtime.GOARCH,
		Reps:   reps,
		Seed:   seedKernelBaseline,
	}
	for _, nb := range nbs {
		unit := float64(nb) * float64(nb) * float64(nb)
		for _, c := range Table1(nb, reps, nil) {
			ns := c.MeasuredMs * 1e6
			gf := 0.0
			if ns > 0 {
				gf = c.ModelUnits * unit / ns // flops / ns == GFLOP/s
			}
			rep.Current = append(rep.Current, KernelBenchEntry{
				Kernel: c.Kernel, NB: nb, NsPerOp: ns, GFlops: gf,
			})
		}
		rep.Current = append(rep.Current, measureTrmm(nb, reps), measureTrmm32(nb, reps), measureGemm32(nb, reps))
		rep.Current = append(rep.Current, measureQRUpdates32(nb, reps)...)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// measureGemm32 times the float32 packed GEMM at one tile order, reported
// under the "GEMM.f32" kernel name with the same flop model as GEMM — so the
// GFLOP/s ratio against the GEMM row at the same nb is the mixed-precision
// path's kernel speedup (the quantity the acceptance criterion gates).
func measureGemm32(nb, reps int) KernelBenchEntry {
	rng := rand.New(rand.NewSource(99))
	a, b, c := randTile(rng, nb), randTile(rng, nb), randTile(rng, nb)
	return timeKernel("GEMM.f32", nb, reps, flops.Gemm(nb, nb, nb), func() {
		blas.Gemm32(blas.NoTrans, blas.NoTrans, -1, a, b, 1, c)
	})
}

// measureTrmm times the float64 packed TRMM at one tile order in the shape
// of the QR update kernels' T-apply (Left, upper, transposed, in place on an
// nb×nb W), reported as "TRMM" with the n²·k flop model. T is scaled by
// 1/nb so repeated in-place products stay far from overflow.
func measureTrmm(nb, reps int) KernelBenchEntry {
	rng := rand.New(rand.NewSource(100))
	t, w := upperTile(rng, nb), randTile(rng, nb)
	alpha := 1 / float64(nb)
	return timeKernel("TRMM", nb, reps, flops.Trmm(nb, nb), func() {
		blas.Trmm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, alpha, t, w)
	})
}

// measureTrmm32 times the resident float32 packed TRMM — the one the
// float32 QR updates run on Matrix32 tile images — in the same shape and
// with the same n²·k model as measureTrmm, reported as "TRMM.f32", so
// -diff-kernels prints its ratio to the TRMM row.
func measureTrmm32(nb, reps int) KernelBenchEntry {
	rng := rand.New(rand.NewSource(100))
	t, w := upperTile(rng, nb), randTile(rng, nb)
	t32, w32 := mat.NewMatrix32(nb, nb), mat.NewMatrix32(nb, nb)
	t32.RoundFrom(t)
	w32.RoundFrom(w)
	alpha := 1 / float64(nb)
	return timeKernel("TRMM.f32", nb, reps, flops.Trmm(nb, nb), func() {
		blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, alpha, t32, w32)
	})
}

// timeKernel warms op once (pools, dispatch), then takes the best of reps
// rounds, each amortized over enough calls to outlast timer noise — a
// single nb=192 call is a few hundred microseconds.
func timeKernel(kernel string, nb, reps int, model float64, op func()) KernelBenchEntry {
	op()
	best := 0.0
	for r := 0; r < reps; r++ {
		const minWall = 10 * time.Millisecond
		iters := 0
		t0 := time.Now()
		for time.Since(t0) < minWall {
			op()
			iters++
		}
		d := time.Since(t0).Seconds() / float64(iters)
		if best == 0 || d < best {
			best = d
		}
	}
	ns := best * 1e9
	gf := 0.0
	if ns > 0 {
		gf = model / ns // flops / ns == GFLOP/s
	}
	return KernelBenchEntry{Kernel: kernel, NB: nb, NsPerOp: ns, GFlops: gf}
}

// randTile returns an nb×nb standard normal tile.
func randTile(rng *rand.Rand, nb int) *mat.Matrix {
	m := mat.New(nb, nb)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// upperTile returns a random upper triangular tile with its diagonal
// shifted by nb, so triangular solves against it stay well posed.
func upperTile(rng *rand.Rand, nb int) *mat.Matrix {
	m := randTile(rng, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, 0)
		}
		m.Set(i, i, m.At(i, i)+float64(nb))
	}
	return m
}

// measureQRUpdates32 times the float32 QR update kernels — UNMQR, TSMQR,
// TTMQR in their converting f32 forms — at one tile order, reported under
// ".f32"-suffixed kernel names with the Table I flop models. Against the f64
// base rows from Table1 these give `-diff-kernels` its f32/f64 ratios for
// the QR side of the mixed path, the rates the packed Trmm32/Trsm32 routing
// is meant to lift.
func measureQRUpdates32(nb, reps int) []KernelBenchEntry {
	rng := rand.New(rand.NewSource(101))
	unmqr := func() func() {
		a, t := randTile(rng, nb), mat.New(nb, nb)
		lapack.Geqrt(a, t)
		c := randTile(rng, nb)
		return func() { lapack.Unmqr32(blas.Trans, a, t, c) }
	}()
	tsmqr := func() func() {
		r, a, t := upperTile(rng, nb), randTile(rng, nb), mat.New(nb, nb)
		lapack.Tsqrt(r, a, t)
		c1, c2 := randTile(rng, nb), randTile(rng, nb)
		return func() { lapack.Tsmqr32(blas.Trans, a, t, c1, c2) }
	}()
	ttmqr := func() func() {
		r1, r2, t := upperTile(rng, nb), upperTile(rng, nb), mat.New(nb, nb)
		lapack.Ttqrt(r1, r2, t)
		c1, c2 := randTile(rng, nb), randTile(rng, nb)
		return func() { lapack.Ttmqr32(blas.Trans, r2, t, c1, c2) }
	}()
	return []KernelBenchEntry{
		timeKernel("UNMQR.f32", nb, reps, flops.Unmqr(nb, nb), unmqr),
		timeKernel("TSMQR.f32", nb, reps, flops.Tsmqr(nb, nb), tsmqr),
		timeKernel("TTMQR.f32", nb, reps, flops.Ttmqr(nb, nb), ttmqr),
	}
}
