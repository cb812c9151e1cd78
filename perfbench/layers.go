package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"luqr/internal/runtime"
)

// kernelTotal is one kernel family's measured work: tasks run, time busy
// and model flops.
type kernelTotal struct {
	count int
	busy  time.Duration
	flops float64
}

// kernelFamilies maps the task-trace kernel names to the per-layer metric
// prefixes. The float32 tasks of a family carry the same kernel name.
var kernelFamilies = []struct{ kernel, prefix string }{
	{"GEMM", "blas.gemm"},
	{"TRSM", "blas.trsm"},
	{"SWPTRSM", "blas.swptrsm"},
	{"GETRF", "lapack.getrf"},
	{"GEQRT", "lapack.geqrt"},
	{"TSQRT", "lapack.tsqrt"},
	{"TTQRT", "lapack.ttqrt"},
	{"UNMQR", "lapack.unmqr"},
	{"TSMQR", "lapack.tsmqr"},
	{"TTMQR", "lapack.ttmqr"},
}

// stepTasks maps the step-machinery task kernels (criterion norms, the
// decision, panel backup and restore) to their metric names.
var stepTasks = []struct{ kernel, name string }{
	{"NORM", "step.norm.busy_s"},
	{"DECIDE", "step.decide.busy_s"},
	{"BACKUP", "step.backup.busy_s"},
	{"RESTORE", "step.restore.busy_s"},
}

func kernelsFromStats(st *runtime.Stats) map[string]kernelTotal {
	ks := map[string]kernelTotal{}
	for name, k := range st.Kernels {
		ks[name] = kernelTotal{count: k.Count, busy: k.Total, flops: k.Flops}
	}
	return ks
}

func kernelsFromSnapshot(s runtime.StatsSnapshot) map[string]kernelTotal {
	ks := map[string]kernelTotal{}
	for name, k := range s.Kernels {
		ks[name] = kernelTotal{count: k.Count, busy: time.Duration(k.TotalNS), flops: k.Flops}
	}
	return ks
}

// setKernels records busy time, task count and achieved rate per kernel
// family, and busy time per step-machinery task. Families that did not run
// read 0.
func (b *bench) setKernels(ks map[string]kernelTotal) {
	for _, f := range kernelFamilies {
		k := ks[f.kernel]
		b.set(f.prefix+".busy_s", k.busy.Seconds(), "s")
		b.set(f.prefix+".count", float64(k.count), "count")
		rate := 0.0
		if k.busy > 0 {
			rate = k.flops / k.busy.Seconds() / 1e9
		}
		b.set(f.prefix+".gflops", rate, "GFLOP/s")
	}
	for _, s := range stepTasks {
		b.set(s.name, ks[s.kernel].busy.Seconds(), "s")
	}
}

// setRuntime records the scheduler's view of one traced factorization.
func (b *bench) setRuntime(st *runtime.Stats) {
	b.set("runtime.span_s", st.Span.Seconds(), "s")
	b.set("runtime.idle_frac", 1-st.Utilization(), "ratio")
	b.set("runtime.critical_path_s", st.CriticalPath.Seconds(), "s")
	occ := 0.0
	if st.Span > 0 {
		occ = float64(st.CriticalPath) / float64(st.Span)
	}
	b.set("runtime.cp_occupancy", occ, "ratio")
	b.set("runtime.queue_depth_mean", st.QueueDepthMean, "tasks")
	b.set("runtime.local_hit_rate", st.LocalHitRate(), "ratio")
	b.set("runtime.steals", float64(st.Steals), "count")
}

// serviceMetrics are the service layer's per-layer metrics; the factor
// workloads do not run the service and report them as 0.
var serviceMetrics = []struct{ name, unit string }{
	{"service.cache_hit_rate", "ratio"},
	{"service.warm_hits", "count"},
	{"service.misses", "count"},
	{"service.load_ms", "ms"},
	{"service.spill_ms", "ms"},
	{"service.mean_batch", "rhs"},
	{"service.rejected", "count"},
	{"service.unattributed_ms", "ms"},
	{"service.cold_p50_ms", "ms"},
	{"service.cold_p80_ms", "ms"},
	{"service.warm_p50_ms", "ms"},
	{"service.warm_p80_ms", "ms"},
	{"service.cached_p50_ms", "ms"},
	{"service.cached_p90_ms", "ms"},
	{"service.req_per_s", "1/s"},
	{"service.cold_n", "count"},
	{"service.warm_n", "count"},
	{"service.cached_n", "count"},
}

func (b *bench) setServiceZero() {
	for _, m := range serviceMetrics {
		b.set(m.name, 0, m.unit)
	}
}

// writeTable prints the per-layer metrics grouped by layer.
func (b *bench) writeTable() {
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(b.log, "per-layer metrics, %s (seed %d)\n", b.w.name, b.opt.seed)
	layer := ""
	for _, name := range names {
		if l, _, _ := strings.Cut(name, "."); l != layer {
			layer = l
			fmt.Fprintf(b.log, "[%s]\n", layer)
		}
		m := b.metrics[name]
		fmt.Fprintf(b.log, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}
