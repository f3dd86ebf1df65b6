package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/topology"
)

// buildIHC constructs topology, decomposition and schedule, one span
// each under parent.
func buildIHC(tr *tracer, parent, op int, graph func() (*topology.Graph, error)) (*core.IHC, error) {
	s := tr.begin("topology", parent, op)
	g, err := graph()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("hamilton.Decompose", parent, op)
	cycles, err := hamilton.Decompose(g)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("core.New", parent, op)
	x, err := core.New(g, cycles)
	tr.end(s)
	return x, err
}

// Set-up is timed in setupSamples samples. Each sample repeats the
// whole set-up until it has run for setupSampleMin, so that set-ups of a
// fraction of a millisecond are timed over many repetitions, and runs
// right after a collection with the collector paused, so that the timing
// of collections does not move the figure. setup_s is the median
// per-set-up time, so the first (cold) sample does not set it.
const (
	setupSamples   = 25
	setupSampleMin = 20 * time.Millisecond
)

// timeSetup times build as above, inside "setup" spans, reports setup_s
// and returns the last build's value.
func timeSetup[T any](r *run, build func(parent, op int) (T, error)) (T, error) {
	var last T
	var per []time.Duration
	for i := 0; i < setupSamples; i++ {
		reps := 0
		var err error
		var d time.Duration
		gcPaused(func() {
			t0 := time.Now()
			for reps == 0 || time.Since(t0) < setupSampleMin {
				op := r.tr.op()
				s := r.tr.begin("setup", 0, op)
				var v T
				v, err = build(s, op)
				r.tr.end(s)
				if err != nil {
					return
				}
				last = v
				reps++
			}
			d = time.Since(t0)
		})
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		per = append(per, d/time.Duration(reps))
	}
	if r.tr == nil {
		r.set("setup_s", "s", medianDur(per).Seconds())
	}
	return last, nil
}

// gcPaused runs f right after a collection, with the collector paused.
func gcPaused(f func()) {
	runtime.GC()
	prev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prev)
	f()
}

// cost is what a stretch of work took: wall time, process CPU time
// (user plus system, every goroutine) and bytes allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// measure runs f and returns what it cost.
func measure(f func() error) (cost, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0, err := cpuTime()
	if err != nil {
		return cost{}, err
	}
	t0 := time.Now()
	err = f()
	wall := time.Since(t0)
	cpu1, cerr := cpuTime()
	runtime.ReadMemStats(&ms)
	if err == nil {
		err = cerr
	}
	return cost{wall: wall, cpu: cpu1 - cpu0, alloc: ms.TotalAlloc - alloc0}, err
}

// another reports whether a run that started at start and has made n
// operations, together taking busy, should make one more: at least one
// operation runs, and the run stops at the operation boundary nearest
// --seconds, judged by the mean operation so far.
func another(r *run, start time.Time, n int, busy time.Duration) bool {
	if n == 0 {
		return true
	}
	return time.Since(start)+busy/time.Duration(2*n) <= r.seconds
}

// sample is one measured stretch of a workload: ops operations that
// together took c.
type sample struct {
	ops int64
	c   cost
}

// setEndToEnd reports the end-to-end metrics every workload shares.
// Each rate and cost per operation is the median over the run's samples,
// so that a stretch the shared host slowed does not set it, and the
// workload's latency samples have the given median and 90th percentile.
func setEndToEnd(r *run, samples []sample, p50, p90 time.Duration) {
	var rate, cpu, alloc []float64
	for _, s := range samples {
		rate = append(rate, float64(s.ops)/s.c.wall.Seconds())
		cpu = append(cpu, cpuUsPerOp(s.c, s.ops))
		alloc = append(alloc, float64(s.c.alloc)/1024/float64(s.ops))
	}
	r.set("ops_per_s", "1/s", median(rate))
	r.set("cpu_us_per_op", "us", median(cpu))
	r.set("alloc_kib_per_op", "KiB", median(alloc))
	r.set("latency_p50_ms", "ms", p50.Seconds()*1e3)
	r.set("latency_p90_ms", "ms", p90.Seconds()*1e3)
}

// walls returns the wall time of each sample.
func walls(samples []sample) []time.Duration {
	var d []time.Duration
	for _, s := range samples {
		d = append(d, s.c.wall)
	}
	return d
}

func cpuUsPerOp(c cost, ops int64) float64 { return c.cpu.Seconds() * 1e6 / float64(ops) }

// setOverhead reports the traced pass against the untraced one by
// process CPU time per operation, which stays a measure of the
// program's own cost on the timer-paced stream workload too.
func setOverhead(r *run, traced, untraced float64) {
	r.set("trace.traced_cpu_us_per_op", "us", traced)
	r.set("trace.untraced_cpu_us_per_op", "us", untraced)
	r.set("trace.overhead_pct", "%", 100*(traced-untraced)/untraced)
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileDur returns the q-quantile of ds, interpolating linearly
// between the closest ranks; ds must not be empty.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// nsPer times f in five batches of at least 20 ms each and returns the
// median nanoseconds per call. Each batch starts from a collected heap
// and runs with the collector paused: with it running, the timing of
// collections moved allocating calls by up to 4× between runs. Each
// batch is one span named name.
func nsPer(tr *tracer, name string, f func()) float64 {
	op := tr.op()
	var per []float64
	for b := 0; b < 5; b++ {
		gcPaused(func() {
			s := tr.begin(name, 0, op)
			calls := 0
			t0 := time.Now()
			for calls == 0 || time.Since(t0) < 20*time.Millisecond {
				for i := 0; i < 100; i++ {
					f()
				}
				calls += 100
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(calls))
			tr.end(s)
		})
	}
	return median(per)
}
