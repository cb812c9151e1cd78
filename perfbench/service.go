package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"luqr/internal/service"
)

// The service workload: an in-process solver service (default Options, a
// fresh store directory, no tuner, one runtime worker per job) behind a
// loopback HTTP server, driven by a closed loop of serviceClients clients.
// Every request names its operator by generator and seed and pins nb and α.
// Requests come in three kinds on a fixed schedule:
//
//   - cold: an operator nobody asked for before — a factorization (and a
//     spill to the store);
//   - warm: an operator spilled to the store during set-up and not in
//     memory — a store load;
//   - cached: an operator in memory — a replay.
//
// The warm set is larger than the in-memory cache, so by the time the loop
// comes back to a warm operator, newer entries have pushed it out of memory
// and the request loads it from the store again.
const (
	serviceClients = 2
	hotOps         = 2  // operators the cached requests use
	warmOps        = 12 // operators spilled during set-up, warmOps/setupReps per set-up
	drainTimeout   = 2 * time.Minute
	// maxJobs bounds the finished-job history. Every finished job keeps its
	// request's operator and its factorization alive, so the default history
	// of 1024 jobs grows the heap by tens of MB per request until it fills;
	// a history as long as the cache keeps a run's footprint bounded while
	// the retention still shows in mem_peak_mb.
	maxJobs = 16
)

type reqKind int

const (
	kindCold reqKind = iota
	kindWarm
	kindCached
)

var kindNames = [...]string{"cold", "warm", "cached"}

// schedule is the request pattern each client repeats, starting at an
// offset of its own. Its 1:1:2 cold:warm:cached mix is an assumption chosen
// so that every request kind gets enough samples in one run; no recorded
// traffic stands behind it.
var schedule = []reqKind{kindCold, kindCached, kindWarm, kindCached}

// Operator seeds of the service workload: one disjoint range per request kind
// inside a block chosen by the run's seed.
func (b *bench) hotSeed(i int) int64  { return b.opt.seed*1_000_000 + int64(i) }
func (b *bench) warmSeed(i int) int64 { return b.opt.seed*1_000_000 + 1000 + int64(i) }
func (b *bench) coldSeed(i int) int64 { return b.opt.seed*1_000_000 + 100_000 + int64(i) }

// sample is one answered request, kept for checking after the loop.
type sample struct {
	kind    reqKind
	op      int64 // operator seed
	rhsSeed int64
	d       time.Duration
	x       []float64
}

// client posts solve requests to the service.
type client struct {
	url string
	hc  *http.Client
}

func (b *bench) solveRequest(op, rhsSeed int64) service.SolveRequest {
	alpha := 100.0
	return service.SolveRequest{
		Matrix: service.MatrixSpec{N: b.w.n, Gen: b.w.gen, Seed: op},
		Config: service.ConfigSpec{Alg: "luqr", NB: b.w.nb, P: 2, Q: 2, Criterion: "max", Alpha: &alpha},
		RHS:    rhsVector(b.w.n, rhsSeed),
	}
}

// solveReply is the part of a POST /v1/solve answer the benchmark reads.
type solveReply struct {
	X []float64 `json:"x"`
}

// solve posts one request and returns the answer and the latency the
// caller sees: request encoding, the round trip and response decoding.
func (c *client) solve(req service.SolveRequest) ([]float64, time.Duration, error) {
	t0 := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Post(c.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out solveReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, err
	}
	return out.X, time.Since(t0), nil
}

func (c *client) metrics() (service.MetricsSnapshot, error) {
	var s service.MetricsSnapshot
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// server is one running service instance.
type server struct {
	m  *service.Manager
	hs *httptest.Server
	c  *client
}

func startServer(storeDir string) (*server, error) {
	m, err := service.NewManager(service.Options{StoreDir: storeDir, Workers: 1, MaxJobs: maxJobs})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(service.NewServer(m, service.DefaultMaxBodyBytes))
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients}
	return &server{m: m, hs: hs, c: &client{url: hs.URL, hc: &http.Client{Transport: tr}}}, nil
}

// stop closes the HTTP server and drains the manager, which waits for every
// pending spill to land in the store.
func (s *server) stop() error {
	s.hs.Close()
	s.c.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.m.Drain(ctx)
}

// parallel runs f(i) for i in [0, n) on serviceClients goroutines.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += serviceClients {
				f(i)
			}
		}(c)
	}
	wg.Wait()
}

// setupService starts a service on the store directory, factors its share of
// the warm set through it and shuts it down again (flushing the spills),
// setupReps times. It returns the warm answers, indexed like the warm set,
// and the median set-up time.
func (b *bench) setupService(dir string) ([]sample, float64, error) {
	warm := make([]sample, warmOps)
	per := warmOps / setupReps
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		s, err := startServer(dir)
		if err != nil {
			return nil, 0, err
		}
		var mu sync.Mutex
		parallel(per, func(i int) {
			i += r * per
			op := b.warmSeed(i)
			x, d, err := s.c.solve(b.solveRequest(op, op+rhsSalt))
			mu.Lock()
			defer mu.Unlock()
			if b.check("set-up cold request", err) {
				warm[i] = sample{kind: kindCold, op: op, rhsSeed: op + rhsSalt, d: d, x: x}
			}
		})
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return warm, median(setups), nil
}

// loop runs the closed loop for the time budget and returns every answered
// request with the counts issued per kind.
func (b *bench) loop(c *client) ([]sample, [3]int) {
	var (
		mu      sync.Mutex
		out     []sample
		issued  [3]int
		next    [3]int // per-kind request counters shared by the clients
		wg      sync.WaitGroup
		budget  = time.Duration(b.opt.seconds * float64(time.Second))
		started = time.Now()
	)
	for cl := 0; cl < serviceClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl * len(schedule) / serviceClients; time.Since(started) < budget; i++ {
				kind := schedule[i%len(schedule)]
				mu.Lock()
				k := next[kind]
				next[kind]++
				issued[kind]++
				mu.Unlock()
				var op, rhsSeed int64
				switch kind {
				case kindCold:
					op = b.coldSeed(k)
					rhsSeed = op + rhsSalt
				case kindWarm:
					op = b.warmSeed(k % warmOps)
					rhsSeed = op + rhsSalt // the set-up rhs: the answer must match bit for bit
				case kindCached:
					op = b.hotSeed(k % hotOps)
					rhsSeed = op + rhsSalt + 1 + int64(k)
				}
				req := b.solveRequest(op, rhsSeed)
				x, d, err := c.solve(req)
				mu.Lock()
				if b.check(kindNames[kind]+" request", err) {
					out = append(out, sample{kind: kind, op: op, rhsSeed: rhsSeed, d: d, x: x})
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return out, issued
}

// verify checks every answer against a freshly generated operator, and each
// warm answer bit for bit against the cold answer set-up got for the same
// operator and right-hand side.
func (b *bench) verify(samples, warm []sample) {
	byOp := map[int64][]sample{}
	for _, s := range samples {
		byOp[s.op] = append(byOp[s.op], s)
	}
	ops := make([]int64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	warmX := map[int64][]float64{}
	for _, s := range warm {
		warmX[s.op] = s.x
	}
	for _, op := range ops {
		a, err := operator(b.w.gen, b.w.n, op)
		if err != nil {
			b.check("regenerate operator", err)
			continue
		}
		for _, s := range byOp[op] {
			var same error
			if s.kind == kindWarm {
				same = sameBits(s.x, warmX[op])
			}
			b.check(kindNames[s.kind]+" answer", checkSolution(a, s.x, rhsVector(b.w.n, s.rhsSeed)), same)
		}
	}
}

func (b *bench) runService() error {
	dir, err := os.MkdirTemp(b.opt.tmpDir, "perfbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	warm, setupS, err := b.setupService(dir)
	if err != nil {
		return err
	}
	s, err := startServer(dir)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()
	// Put the hot operators in memory and open the connections.
	var hot []sample
	for i := 0; i < hotOps; i++ {
		op := b.hotSeed(i)
		x, _, err := s.c.solve(b.solveRequest(op, op+rhsSalt))
		if b.check("hot-set request", err) {
			hot = append(hot, sample{kind: kindCached, op: op, rhsSeed: op + rhsSalt, x: x})
		}
	}
	before, err := s.c.metrics()
	if err != nil {
		return err
	}
	t0 := time.Now()
	samples, issued := b.loop(s.c)
	elapsed := time.Since(t0)
	after, err := s.c.metrics()
	if err != nil {
		return err
	}
	stopped = true
	if err := s.stop(); err != nil {
		return err
	}

	b.check("/metrics misses equal the cold requests", countsMatch("misses", after.Cache.Misses-before.Cache.Misses, issued[kindCold]))
	b.check("/metrics warm_hits equal the warm requests", countsMatch("warm_hits", after.Store.WarmHits-before.Store.WarmHits, issued[kindWarm]))
	b.verify(append(append(samples, warm...), hot...), warm)

	lat := map[reqKind][]time.Duration{}
	for _, s := range samples {
		lat[s.kind] = append(lat[s.kind], s.d)
	}
	for _, ds := range lat {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	ms := func(k reqKind, p float64) float64 { return 1e3 * service.Percentile(lat[k], p).Seconds() }
	fmt.Fprintf(b.log, "%s: %d requests in %.1f s (cold %d, warm %d, cached %d); p50 cold %.1f ms, warm %.1f ms, cached %.1f ms\n",
		b.w.name, len(samples), elapsed.Seconds(), len(lat[kindCold]), len(lat[kindWarm]), len(lat[kindCached]),
		ms(kindCold, 50), ms(kindWarm, 50), ms(kindCached, 50))

	if !b.opt.trace {
		b.set("setup_s", setupS, "s")
		// The cold request's latency stands in for the factor workloads'
		// solve time. gflops is that latency's inverse, rescaled: it covers
		// generation, JSON, HTTP and queueing as well, so it is no kernel rate.
		cold := ms(kindCold, 50) / 1e3
		b.set("solve_s", cold, "s")
		b.set("gflops", factorGFlops(b.w.n, cold), "GFLOP/s")
		b.setMemPeak()
		return nil
	}

	b.set("service.cold_p50_ms", ms(kindCold, 50), "ms")
	b.set("service.cold_p80_ms", ms(kindCold, 80), "ms")
	b.set("service.warm_p50_ms", ms(kindWarm, 50), "ms")
	b.set("service.warm_p80_ms", ms(kindWarm, 80), "ms")
	b.set("service.cached_p50_ms", ms(kindCached, 50), "ms")
	b.set("service.cached_p90_ms", ms(kindCached, 90), "ms")
	b.set("service.req_per_s", float64(len(samples))/elapsed.Seconds(), "1/s")
	b.set("service.cold_n", float64(len(lat[kindCold])), "count")
	b.set("service.warm_n", float64(len(lat[kindWarm])), "count")
	b.set("service.cached_n", float64(len(lat[kindCached])), "count")
	b.setServiceLayers(before, after)
	return b.traceServiceShape(ms(kindCached, 50))
}

func countsMatch(what string, got int64, want int) error {
	if got != int64(want) {
		return fmt.Errorf("%s moved by %d, the schedule issued %d", what, got, want)
	}
	return nil
}

// setServiceLayers records what /metrics saw during the loop: the service
// counters, and the kernel and scheduler totals of the jobs it ran.
func (b *bench) setServiceLayers(before, after service.MetricsSnapshot) {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	b.set("service.cache_hit_rate", rate, "ratio")
	b.set("service.warm_hits", float64(after.Store.WarmHits-before.Store.WarmHits), "count")
	b.set("service.misses", float64(misses), "count")
	b.set("service.load_ms", after.Store.MeanLoadMS, "ms")
	b.set("service.spill_ms", after.Store.MeanSpillMS, "ms")
	batch := 0.0
	if n := after.Solve.Batches - before.Solve.Batches; n > 0 {
		batch = float64(after.Solve.BatchedRHS-before.Solve.BatchedRHS) / float64(n)
	}
	b.set("service.mean_batch", batch, "rhs")
	b.set("service.rejected", float64(after.Queue.Rejected-before.Queue.Rejected), "count")

	ks := kernelsFromSnapshot(after.Kernels)
	for name, k := range kernelsFromSnapshot(before.Kernels) {
		d := ks[name]
		ks[name] = kernelTotal{count: d.count - k.count, busy: d.busy - k.busy, flops: d.flops - k.flops}
	}
	b.setKernels(ks)

	// Per factorization: jobs run on one worker each, so busy over span is
	// the job's utilization.
	jobs := float64(misses)
	if jobs == 0 {
		jobs = 1
	}
	span := float64(after.Kernels.SpanNS-before.Kernels.SpanNS) / 1e9
	busy := float64(after.Kernels.BusyNS-before.Kernels.BusyNS) / 1e9
	cp := float64(after.Kernels.CriticalPathNS-before.Kernels.CriticalPathNS) / 1e9
	b.set("runtime.span_s", span/jobs, "s")
	b.set("runtime.critical_path_s", cp/jobs, "s")
	idle, occ := 0.0, 0.0
	if span > 0 {
		idle, occ = 1-busy/span, cp/span
	}
	b.set("runtime.idle_frac", idle, "ratio")
	b.set("runtime.cp_occupancy", occ, "ratio")
	local := after.Sched.LocalHits - before.Sched.LocalHits
	steals := after.Sched.Steals - before.Sched.Steals
	hit := 0.0
	if local+steals > 0 {
		hit = float64(local) / float64(local+steals)
	}
	b.set("runtime.local_hit_rate", hit, "ratio")
	b.set("runtime.steals", float64(steals), "count")
	// The service records no queue-depth samples and runs every job on one
	// worker, so these two have no service reading.
	b.set("runtime.queue_depth_mean", 0, "tasks")
	b.set("runtime.speedup_vs_1w", 0, "x")
}

// traceServiceShape runs the isolated probes at the service's shape: one
// traced factorization on one worker as the service runs it (step counts,
// post time, encode/decode, replay), operator generation, the JSON round
// trip of a request and its answer, and the kernel and dispatch probes.
// The cached latency minus generation, replay and JSON is what the service
// itself adds.
func (b *bench) traceServiceShape(cachedMS float64) error {
	w := b.w
	op := b.coldSeed(0)
	a, err := operator(w.gen, w.n, op)
	if err != nil {
		return err
	}
	rhs := rhsVector(w.n, op+rhsSalt)
	res, dt, err := timedSolve(a, rhs, w.factorConfig(1, true))
	if err != nil {
		b.check("probe solve", err)
		return fmt.Errorf("probe solve: %v", err)
	}
	b.check("probe solve", w.checkShape(res.Report), checkSolution(a, res.X, rhs))
	res.Report.Trace = nil
	b.setReport(res.Report)
	b.set("core.post_s", (dt - res.Report.WallTime).Seconds(), "s")

	genS := timeMedian(probeReps, func() { _, _ = operator(w.gen, w.n, op) }) // generated above without error
	b.set("matgen.gen_s", genS, "s")
	jsonS := b.jsonRoundTrip(op)
	b.probeFactorization(res, a)
	b.probeTile(a)
	b.probeKernels()
	unattributed := cachedMS - 1e3*(genS+b.metrics["core.replay_s"].Value+jsonS)
	b.set("service.unattributed_ms", unattributed, "ms")
	b.set("trace.overhead_s", 0, "s")
	for _, m := range []string{"ledger.busy_s", "ledger.idle_s", "ledger.residue_s"} {
		b.set(m, 0, "s")
	}
	b.set("ledger.residue_frac", 0, "ratio")
	fmt.Fprintf(b.log, "cached request %.2f ms = generation %.2f + replay %.2f + JSON %.2f + unattributed %.2f\n",
		cachedMS, 1e3*genS, 1e3*b.metrics["core.replay_s"].Value, 1e3*jsonS, unattributed)
	b.writeTable()
	return nil
}

// jsonRoundTrip times the JSON work of one request outside the service:
// encoding and decoding the request body and the answer body.
func (b *bench) jsonRoundTrip(op int64) float64 {
	req := b.solveRequest(op, op+rhsSalt)
	reply := solveReply{X: req.RHS}
	// The errors are dropped: these values always encode, and the loop has
	// already decoded the same shapes over HTTP.
	return timeMedian(probeReps, func() {
		body, _ := json.Marshal(req)
		var r service.SolveRequest
		_ = json.Unmarshal(body, &r)
		out, _ := json.Marshal(reply)
		var x solveReply
		_ = json.Unmarshal(out, &x)
	})
}
