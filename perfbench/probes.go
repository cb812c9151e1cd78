package main

import (
	"math/rand"
	"time"

	"luqr/internal/blas"
	"luqr/internal/core"
	"luqr/internal/mat"
	"luqr/internal/matgen"
	"luqr/internal/runtime"
	"luqr/internal/tile"
)

// Isolated probes: single public calls at the workload's shapes, timed from
// outside the program.

const (
	probeReps      = 5     // batches per probe; the probe reports their median
	probeBatchTime = 40e-3 // seconds of calls per GEMM batch
	dispatchTasks  = 20000 // no-op tasks per dispatch batch
)

// timeMedian runs f reps times and returns the median wall time in seconds.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

func toMatrix32(m *mat.Matrix) *mat.Matrix32 {
	m32 := mat.NewMatrix32(m.Rows, m.Cols)
	m32.RoundFrom(m)
	return m32
}

// gemmPeak returns the median rate (GFLOP/s) of isolated nb×nb×nb
// trailing-update GEMMs C -= A·B, in float64 or on resident float32 tiles.
func gemmPeak(nb int, f32 bool, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	a, bm, c := matgen.Random(nb, rng), matgen.Random(nb, rng), matgen.Random(nb, rng)
	call := func() { blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a, bm, 1, c) }
	if f32 {
		a32, b32, c32 := toMatrix32(a), toMatrix32(bm), toMatrix32(c)
		call = func() { blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a32, b32, 1, c32) }
	}
	// Size a batch to about probeBatchTime from one timed call.
	call()
	t0 := time.Now()
	call()
	per := time.Since(t0).Seconds()
	calls := 1
	if per > 0 {
		calls = int(probeBatchTime/per) + 1
	}
	s := timeMedian(probeReps, func() {
		for i := 0; i < calls; i++ {
			call()
		}
	})
	return 2 * float64(nb*nb*nb) * float64(calls) / s / 1e9
}

// dispatchNS returns the median per-task cost (ns) of pushing no-op tasks
// through a fresh runtime engine with the given number of workers.
func dispatchNS(workers int) float64 {
	s := timeMedian(probeReps, func() {
		e := runtime.NewEngine(runtime.Config{Workers: workers})
		hs := make([]*runtime.Handle, 64)
		for i := range hs {
			hs[i] = e.NewHandle("x", 8, 0)
		}
		for i := 0; i < dispatchTasks; i++ {
			e.Submit(runtime.TaskSpec{Name: "noop", Accesses: []runtime.Access{runtime.W(hs[i%len(hs)])}})
		}
		e.Wait()
		e.Close()
	})
	return s * 1e9 / dispatchTasks
}

// probeKernels records the GEMM reference rates at the workload's tile
// order and the runtime's per-task dispatch cost.
func (b *bench) probeKernels() {
	b.set("blas.gemm_peak_gflops", gemmPeak(b.w.nb, false, b.opt.seed), "GFLOP/s")
	b.set("blas.gemm32_peak_gflops", gemmPeak(b.w.nb, true, b.opt.seed), "GFLOP/s")
	b.set("runtime.dispatch_ns", dispatchNS(b.opt.workers), "ns")
}

// probeTile times tile.FromDense on the operator padded to the tile grid,
// as the solver tiles it.
func (b *bench) probeTile(a *mat.Matrix) {
	nb := b.w.nb
	padded := a
	if a.Rows%nb != 0 {
		padded = mat.Identity((a.Rows/nb + 1) * nb)
		padded.View(0, 0, a.Rows, a.Cols).CopyFrom(a)
	}
	b.set("tile.fromdense_s", timeMedian(3, func() { tile.FromDense(padded, nb) }), "s")
}

// probeFactorization encodes res, decodes it back, and replays single
// right-hand sides through it: encode/decode time, encoded size, replay time
// and refinement rounds. The decoded factorization's answer and the replays'
// answers are checked against a0.
func (b *bench) probeFactorization(res *core.Result, a0 *mat.Matrix) {
	n := b.w.n
	var data []byte
	var err error
	t0 := time.Now()
	data, err = res.EncodeFactorization()
	b.set("core.encode_s", time.Since(t0).Seconds(), "s")
	if !b.check("encode factorization", err) {
		return
	}
	b.set("core.factor_mb", float64(len(data))/(1<<20), "MB")
	t0 = time.Now()
	dec, err := core.DecodeFactorization(data)
	b.set("core.decode_s", time.Since(t0).Seconds(), "s")
	data = nil
	if !b.check("decode factorization", err) {
		return
	}
	rhs := rhsVector(n, b.opt.seed+rhsSalt)
	xs, _, err := dec.SolveBatchRefined([][]float64{rhs})
	if err == nil {
		err = checkSolution(a0, xs[0], rhs)
	}
	b.check("solve through decoded factorization", err)

	var ts []float64
	iters := 0
	for k := 0; k < 3; k++ {
		b2 := rhsVector(n, b.opt.seed+rhsSalt+1+int64(k))
		t0 := time.Now()
		xs, it, err := res.SolveBatchRefined([][]float64{b2})
		ts = append(ts, time.Since(t0).Seconds())
		if err == nil {
			err = checkSolution(a0, xs[0], b2)
		}
		b.check("single-RHS replay", err)
		iters = it
	}
	b.set("core.replay_s", median(ts), "s")
	b.set("core.refine_iters", float64(iters), "count")
}
