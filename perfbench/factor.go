package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"luqr"
	"luqr/internal/core"
	"luqr/internal/criteria"
	"luqr/internal/mat"
	"luqr/internal/runtime"
	"luqr/internal/tile"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minCold   = 3 // fewest timed solves per run, whatever --seconds says
	maxCold   = 64
	minCached = 5 // fewest checked single-RHS replays per run
	maxCached = 256
	// traceRounds is the number of rounds of an untraced, a traced and a
	// 1-worker solve the traced run makes.
	traceRounds = 3
	// coldShare is the part of --seconds the factor workloads spend on
	// from-scratch solves; the rest goes to cached replays.
	coldShare = 0.8
	// rhsSalt separates the right-hand-side seeds from the operator seeds.
	rhsSalt = 1 << 32
)

// factorConfig is the hybrid configuration every factor workload runs:
// LUQR with MAX(α=100) on a 2×2 grid.
func (w workload) factorConfig(workers int, trace bool) core.Config {
	return core.Config{
		Alg:       core.LUQR,
		NB:        w.nb,
		Grid:      tile.NewGrid(2, 2),
		Criterion: criteria.Max{Alpha: 100},
		Workers:   workers,
		Precision: w.precision,
		Trace:     trace,
	}
}

// timedSolve calls luqr.Solve and returns the result with the call's
// outside wall time.
func timedSolve(a *mat.Matrix, rhs []float64, cfg core.Config) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := luqr.Solve(a, rhs, cfg)
	return res, time.Since(t0), err
}

// setupFactor generates the operator and right-hand side and warms the
// solver on a small instance of the same configuration, setupReps times.
// It returns the operator, the rhs, the median set-up time and the median
// operator-generation time.
func (b *bench) setupFactor() (*mat.Matrix, []float64, float64, float64, error) {
	w := b.w
	var a *mat.Matrix
	var rhs []float64
	var setups, gens []float64
	small := 4 * w.nb // two tiles per grid dimension
	for r := 0; r < setupReps; r++ {
		a = nil // let the previous copy go before generating the next
		t0 := time.Now()
		var err error
		if a, err = operator(w.gen, w.n, b.opt.seed); err != nil {
			return nil, nil, 0, 0, err
		}
		gens = append(gens, time.Since(t0).Seconds())
		rhs = rhsVector(w.n, b.opt.seed+rhsSalt)
		wa, err := operator(w.gen, small, b.opt.seed)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		wb := rhsVector(small, b.opt.seed+rhsSalt)
		res, err := luqr.Solve(wa, wb, w.factorConfig(b.opt.workers, false))
		if err == nil {
			err = checkSolution(wa, res.X, wb)
		}
		b.check("warm-up solve", err)
		setups = append(setups, time.Since(t0).Seconds())
	}
	return a, rhs, median(setups), median(gens), nil
}

func (b *bench) runFactor() error {
	a, rhs, setupS, genS, err := b.setupFactor()
	if err != nil {
		return err
	}
	if b.opt.trace {
		b.set("matgen.gen_s", genS, "s")
		return b.traceFactor(a, rhs)
	}
	b.set("setup_s", setupS, "s")
	b.measureFactor(a, rhs)
	b.setMemPeak()
	return nil
}

// measureFactor is the untraced run: from-scratch solves for the cold share
// of the time budget (at least minCold), then single-RHS replays through the
// last factorization for the rest (at least minCached). Every answer is
// checked afterwards against a freshly generated copy of the operator. The
// replays are checked but not reported end to end: their time depends on
// whether the operator's answers need one or two refinement rounds, which
// differs from seed to seed by 40% on factor-random-f32 (core.replay_s is
// the traced run's replay probe).
func (b *bench) measureFactor(a *mat.Matrix, rhs []float64) {
	w := b.w
	cfg := w.factorConfig(b.opt.workers, false)
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }

	var coldS []float64
	var coldX [][]float64
	var shapeErrs []error
	var last *core.Result
	for i := 0; i < maxCold; i++ {
		if i >= minCold && elapsed()+median(coldS) > coldShare*b.opt.seconds {
			break
		}
		last = nil
		goruntime.GC() // start every timed solve from the same collected heap
		res, dt, err := timedSolve(a, rhs, cfg)
		if err != nil {
			b.check("solve", err)
			continue
		}
		coldS = append(coldS, dt.Seconds())
		coldX = append(coldX, res.X)
		shapeErrs = append(shapeErrs, w.checkShape(res.Report))
		last = res
	}

	var cachedS []float64
	var cachedX [][]float64
	var cachedSeeds []int64
	for k := 0; last != nil && k < maxCached; k++ {
		if k >= minCached && elapsed() > b.opt.seconds {
			break
		}
		seed := b.opt.seed + rhsSalt + 1 + int64(k)
		b2 := rhsVector(w.n, seed)
		t0 := time.Now()
		xs, _, err := last.SolveBatchRefined([][]float64{b2})
		dt := time.Since(t0)
		if err != nil {
			b.check("cached solve", err)
			continue
		}
		cachedS = append(cachedS, dt.Seconds())
		cachedX = append(cachedX, xs[0])
		cachedSeeds = append(cachedSeeds, seed)
	}
	last = nil
	fmt.Fprintf(b.log, "%s: %d solves (median %.3f s), %d cached replays (median %.1f ms)\n",
		w.name, len(coldS), median(coldS), len(cachedS), 1e3*median(cachedS))

	a0, err := operator(w.gen, w.n, b.opt.seed)
	if err != nil {
		b.check("regenerate operator", err)
		return
	}
	for i, x := range coldX {
		b.check("solve", shapeErrs[i], checkSolution(a0, x, rhs))
	}
	for i, x := range cachedX {
		b.check("cached solve", checkSolution(a0, x, rhsVector(w.n, cachedSeeds[i])))
	}

	b.set("solve_s", median(coldS), "s")
	b.set("gflops", factorGFlops(w.n, median(coldS)), "GFLOP/s")
}

// traceFactor is the traced run. It makes traceRounds rounds of an untraced,
// a traced and a 1-worker solve, back to back so that each round's three
// calls see the same host load. The tracing overhead is the median of the
// rounds' traced-minus-untraced differences and the 1-worker speedup the
// median of their 1-worker-over-untraced ratios. The per-layer metrics and
// the ledger come from the last traced solve's task trace; the ledger
// residue is taken against the median untraced solve. The isolated probes
// follow. Every answer is checked against a fresh copy of the operator.
func (b *bench) traceFactor(a *mat.Matrix, rhs []float64) error {
	w := b.w
	a0, err := operator(w.gen, w.n, b.opt.seed)
	if err != nil {
		return err
	}
	solve := func(what string, cfg core.Config) (*core.Result, time.Duration) {
		goruntime.GC() // start every timed solve from the same collected heap
		res, dt, err := timedSolve(a, rhs, cfg)
		if err != nil {
			b.check(what, err)
			return nil, 0
		}
		b.check(what, w.checkShape(res.Report), checkSolution(a0, res.X, rhs))
		return res, dt
	}

	var resT *core.Result
	var tT time.Duration
	var untraced, overhead, speedup []float64
	for i := 0; i < traceRounds; i++ {
		resT = nil // let the previous traced factorization go before the next solves
		_, tU := solve("untraced solve", w.factorConfig(b.opt.workers, false))
		res, t := solve("traced solve", w.factorConfig(b.opt.workers, true))
		_, t1 := solve("1-worker solve", w.factorConfig(1, false))
		if tU == 0 || res == nil {
			continue
		}
		resT, tT = res, t
		untraced = append(untraced, tU.Seconds())
		overhead = append(overhead, (t - tU).Seconds())
		if t1 > 0 {
			speedup = append(speedup, t1.Seconds()/tU.Seconds())
		}
	}
	if resT == nil {
		return fmt.Errorf("no round gave both an untraced and a traced solve")
	}
	fmt.Fprintf(b.log, "%s: %d rounds of untraced, traced and 1-worker solves; untraced median %.3f s\n",
		w.name, len(untraced), median(untraced))
	r := resT.Report
	st := runtime.ComputeStats(r.Trace)
	r.Trace = nil

	b.setKernels(kernelsFromStats(st))
	b.setRuntime(st)
	b.set("runtime.speedup_vs_1w", median(speedup), "x")
	b.setReport(r)
	post := tT - r.WallTime
	b.set("core.post_s", post.Seconds(), "s")
	b.set("trace.overhead_s", median(overhead), "s")
	b.setLedger(median(untraced), st, post)

	b.probeKernels()
	b.probeTile(a)
	b.probeFactorization(resT, a0)
	b.setServiceZero()
	b.writeTable()
	return nil
}

// setReport records the exact step and residency counts of one
// factorization.
func (b *bench) setReport(r *core.Report) {
	b.set("core.lu_steps", float64(r.LUSteps), "count")
	b.set("core.qr_steps", float64(r.QRSteps), "count")
	b.set("core.f32_steps", float64(r.F32Steps), "count")
	b.set("core.demotions", float64(r.Demotions), "count")
	b.set("tile.f32_epochs", float64(r.F32Epochs), "count")
	b.set("tile.conversions", float64(r.Conversions), "count")
	b.set("tile.conv_s", r.ConvTime.Seconds(), "s")
}

// setLedger splits the median untraced solve time into worker busy time,
// worker idle time and the work outside the task graph (core.post_s), all
// three from one traced solve; the residue is what none of them covers.
// runtime.Stats counts a worker's idle time as the task span minus its busy
// time, so busy/workers + idle/workers is the span, and the residue is
// Report.WallTime minus the span less that solve's tracing overhead. It is
// not an independent check of the trace's attribution.
func (b *bench) setLedger(solveS float64, st *runtime.Stats, post time.Duration) {
	workers := float64(st.Workers)
	if workers == 0 {
		workers = 1
	}
	busy := st.TotalBusy().Seconds() / workers
	idle := 0.0
	for _, ws := range st.Worker {
		idle += ws.Idle.Seconds()
	}
	idle /= workers
	residue := solveS - busy - idle - post.Seconds()
	b.set("ledger.busy_s", busy, "s")
	b.set("ledger.idle_s", idle, "s")
	b.set("ledger.residue_s", residue, "s")
	b.set("ledger.residue_frac", residue/solveS, "ratio")
	fmt.Fprintf(b.log, "ledger %s: median untraced solve %.3f s on %d workers\n", b.w.name, solveS, st.Workers)
	for _, row := range []struct {
		name string
		v    float64
	}{{"busy / workers", busy}, {"idle / workers", idle}, {"core.post_s", post.Seconds()}, {"residue", residue}} {
		fmt.Fprintf(b.log, "  %-16s %8.3f s %6.1f%%\n", row.name, row.v, 100*row.v/solveS)
	}
}
