package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the program against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small shrinks a workload so the smoke test runs every code path in
// seconds. The factor order is not a multiple of nb, so the padded path
// runs too.
func small(w workload) workload {
	if w.service {
		w.n, w.nb = 256, 64
	} else {
		w.n, w.nb = 200, 32
	}
	return w
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", sw.Name)
		}
	}
}

// TestSmoke runs every workload at a small size, untraced and traced, and
// checks that each run is correct and emits every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := small(w), trace
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				// A factor run this short makes exactly minCold solves and
				// minCached replays, so every run checks the same answers.
				opt := options{seed: 3, seconds: 0.01, trace: trace, workers: 2, tmpDir: t.TempDir()}
				if w.service {
					opt.seconds = 1
				}
				var log strings.Builder
				b := newBench(w, opt, &log)
				if err := b.run(); err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				res := b.result()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestPerturbedAnswerFails checks that the answer checks count a wrong
// solution as a failure: a perturbed x leaves the HPL3 band, and a warm
// answer one bit away from the cold one is not the same answer.
func TestPerturbedAnswerFails(t *testing.T) {
	w := small(workloads[0])
	a, err := operator(w.gen, w.n, 5)
	if err != nil {
		t.Fatal(err)
	}
	rhs := rhsVector(w.n, 6)
	res, _, err := timedSolve(a, rhs, w.factorConfig(2, false))
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, options{}, io.Discard)
	if !b.check("exact answer", checkSolution(a, res.X, rhs)) {
		t.Fatal("the solver's own answer fails the check")
	}
	x := append([]float64(nil), res.X...)
	x[len(x)/2] += 1e-3 * (1 + math.Abs(x[len(x)/2]))
	b.check("perturbed answer", checkSolution(a, x, rhs))
	y := append([]float64(nil), res.X...)
	y[0] = math.Nextafter(y[0], math.Inf(1))
	b.check("one-bit answer", sameBits(res.X, y))
	r := b.result()
	if r.Attempted != 3 || r.Failed != 2 || r.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want 3, 2, false", r.Attempted, r.Failed, r.Correct)
	}
}
