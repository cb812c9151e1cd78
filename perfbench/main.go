// Command perfbench is the solver's caller-side benchmark. It runs one named
// workload from a single process, times calls into each layer's public
// functions from outside, checks every answer it gets, and prints every
// metric by name with its unit.
//
//	perfbench --workload factor-random-f64 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding the
// end-to-end metrics; with --trace 1 the run repeats the workload with
// task-graph tracing on and reports the per-layer metrics instead, after a
// human-readable per-layer table and time ledger. README.md maps every metric
// to its layer and to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"syscall"

	"luqr/internal/core"
)

// workload is one set of inputs the benchmark runs. The factor workloads time
// luqr.Solve on one operator; the service workload drives an in-process
// solver service over loopback HTTP.
type workload struct {
	name      string
	gen       string // matgen generator of the operator
	n, nb     int
	precision core.Precision
	service   bool

	// Shape assertions every factorization of the workload must satisfy.
	wantQR     bool // takes at least one QR step
	wantAllF32 bool // takes no QR step and runs every step in float32
	wantEpochs bool // opens float32 residency epochs
}

var workloads = []workload{
	{name: "factor-random-f64", gen: "random", n: 4096, nb: 192, precision: core.PrecisionF64, wantQR: true},
	{name: "factor-diagdom-auto", gen: "diagdom", n: 4096, nb: 192, precision: core.PrecisionAuto, wantAllF32: true},
	{name: "factor-random-f32", gen: "random", n: 4096, nb: 192, precision: core.PrecisionF32, wantQR: true, wantEpochs: true},
	{name: "service-mixed", gen: "random", n: 1024, nb: 128, service: true, wantQR: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the per-run settings from the command line.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workers int    // runtime workers per factorization (nproc)
	tmpDir  string // parent of the service's store directory ("" = TMPDIR)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's metrics and check outcomes.
type bench struct {
	w   workload
	opt options
	log io.Writer // human-readable progress, tables and check failures

	metrics   map[string]metric
	attempted int
	failed    int
}

func newBench(w workload, opt options, log io.Writer) *bench {
	return &bench{w: w, opt: opt, log: log, metrics: map[string]metric{}}
}

func (b *bench) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation and, when errs holds a non-nil
// error, one failure. Every failed check is logged.
func (b *bench) check(what string, errs ...error) bool {
	b.attempted++
	for _, err := range errs {
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
			return false
		}
	}
	return true
}

func (b *bench) result() result {
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
}

// run executes the workload in the mode the options select.
func (b *bench) run() error {
	if b.w.service {
		return b.runService()
	}
	return b.runFactor()
}

// setMemPeak reports the process's peak resident set size.
func (b *bench) setMemPeak() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.set("mem_peak_mb", float64(ru.Maxrss)/1024, "MB") // Maxrss is in KiB on Linux
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measurement time budget (s)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: goruntime.NumCPU()}
	b := newBench(w, opt, os.Stdout)
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// median returns the median of vs (0 for none). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// factorGFlops is the paper's rate convention: 2/3·N³ operations per solve,
// whatever mix of LU and QR steps was taken.
func factorGFlops(n int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return 2.0 / 3.0 * math.Pow(float64(n), 3) / secs / 1e9
}
