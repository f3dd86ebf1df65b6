// Command enginebench measures the simulation engine's headline
// microbenchmark — one full Q10 ATA reliable broadcast, the same
// workload as BenchmarkEngineQ10ATA — and records the numbers as JSON
// (events/sec, ns/event, allocs/event), alongside the recorded
// pre-flat-array baseline for comparison. `make bench-engine` writes
// BENCH_engine.json at the repository root.
//
// The default records medians over 21 runs; -quick over 9 (seconds,
// for CI). -check compares the measurement against the values recorded
// in the -against file and exits non-zero on regression: allocs/event
// beyond 10x recorded (the engine's allocation-free event loop is an
// oracle this smoke keeps honest), or the engine-to-calibration ratio
// beyond 1+(-tolerance) of recorded. The nil-observer fast path is
// exactly what the headline numbers measure; a second measurement with
// a counting observer attached reports the per-event hook cost, and
// -check additionally requires the hooked run to stay allocation-free
// (the hook hands out stack values, never heap).
//
// The speed gate is host-portable: engine runs are interleaved with
// passes of a fixed calibration workload (calibrator) in the same
// process, and -check compares ns/event divided by calibration ns/op,
// so a slower or faster machine moves both terms together. The report
// records the host fingerprint (CPU model, cores, GOMAXPROCS, Go
// version) the numbers were taken on.
//
// Every measurement also records the live heap after the last run and
// its per-node share, so the Q16 memory footprint is tracked, not
// guessed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// metrics is one engine measurement over the Q10 ATA workload.
type metrics struct {
	EventsPerRun   int64   `json:"events_per_run"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	// PeakHeapBytes is the live heap right after the last run (GC'd
	// before, read after — scratch, compiled routes, and results all
	// still reachable), and HeapBytesPerNode its per-node share: the
	// figure to extrapolate a Q14/Q16 footprint from.
	PeakHeapBytes    uint64  `json:"peak_heap_bytes,omitempty"`
	HeapBytesPerNode float64 `json:"heap_bytes_per_node,omitempty"`
	// CalibNsPerOp is the median cost of the calibration passes
	// interleaved with this measurement's engine runs.
	CalibNsPerOp float64 `json:"calib_ns_per_op,omitempty"`
	// Calibrated is the figure the speed gate grades: the median over
	// runs of the run's ns/event divided by the mean of the calibration
	// passes timed right before and right after it.
	Calibrated float64 `json:"calibrated_ratio,omitempty"`
}

// baseline is the seed engine (map-addressed links, container/heap event
// queue, per-packet route copies) measured on this workload before the
// flat-array rewrite.
var baseline = metrics{
	EventsPerRun:   10480640,
	EventsPerSec:   1.98e6,
	NsPerEvent:     504.7,
	AllocsPerEvent: 2.0,
	BytesPerEvent:  96.4,
}

// host is the fingerprint of the machine a report was measured on.
type host struct {
	CPUModel   string `json:"cpu_model"`
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	return host{
		CPUModel:   cpuModel(),
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

type report struct {
	Benchmark string  `json:"benchmark"`
	Date      string  `json:"date"`
	Host      host    `json:"host"`
	Runs      int     `json:"runs"`
	Current   metrics `json:"current"`
	Baseline  metrics `json:"baseline_pre_flat_array"`
	Speedup   float64 `json:"speedup_events_per_sec"`
	// Hooked is the same workload with a counting observer attached —
	// the per-hop trace hook's worst-case cost (one interface call per
	// event, zero heap traffic). HookOverheadNs is hooked minus nil-hook
	// ns/event.
	Hooked         *metrics `json:"hooked_observer,omitempty"`
	HookOverheadNs float64  `json:"hook_overhead_ns_per_event,omitempty"`
}

// Calibration workload: the classic "hold" model on a 4-ary min-heap of
// engine-sized events (pop the minimum, push it back a pseudo-random
// distance later, so the pending set stays the size of a Q10 stage),
// with each op also updating one pseudo-random slot of a table the size
// of Q10's link array plus routes — the same mix of branchy queue work
// and cache-missing state updates the engine's hot path does, in code
// the engine does not share, so an engine regression cannot hide by
// slowing the yardstick too.
const (
	calibPending = 10240   // γN packets in flight in a Q10 stage
	calibTable   = 1 << 19 // 8-byte slots: 4 MiB of state
	calibOps     = 1 << 19 // ops per timed pass (~0.1 s)
	// calibBytes is the calibrator's live heap, excluded from the
	// engine's heap figures (it stays reachable across the runs).
	calibBytes = calibPending*4*8 + calibTable*8
)

type calibEvent struct {
	t, key, a, b int64
}

// calibrator holds the calibration workload's state. It is built once
// and warmed (pages touched, heap filled), so every timed pass runs the
// same steady-state work.
type calibrator struct {
	heap  []calibEvent
	table []int64
	x     uint64 // xorshift state
}

func newCalibrator() *calibrator {
	c := &calibrator{heap: make([]calibEvent, 0, calibPending), table: make([]int64, calibTable), x: 0x9e3779b97f4a7c15}
	for i := 0; i < calibPending; i++ {
		c.heap = calibPush(c.heap, calibEvent{t: int64(c.next() % 4096), key: int64(i)})
	}
	c.pass()
	return c
}

func (c *calibrator) next() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

// pass runs calibOps hold operations and returns their ns/op.
func (c *calibrator) pass() float64 {
	h, table := c.heap, c.table
	t0 := time.Now()
	for i := 0; i < calibOps; i++ {
		var e calibEvent
		h, e = calibPop(h)
		r := c.next()
		slot := &table[r&(calibTable-1)]
		*slot = max(*slot, e.t) + e.a
		e.t += int64(r>>32)%64 + 1
		e.a = *slot & 7
		h = calibPush(h, e)
	}
	c.heap = h
	return float64(time.Since(t0).Nanoseconds()) / calibOps
}

func calibLess(a, b *calibEvent) bool {
	return a.t < b.t || (a.t == b.t && a.key < b.key)
}

func calibPush(h []calibEvent, e calibEvent) []calibEvent {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !calibLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

func calibPop(h []calibEvent) ([]calibEvent, calibEvent) {
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n == 0 {
		return h, top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < min(c+4, n); k++ {
			if calibLess(&h[k], &h[m]) {
				m = k
			}
		}
		if !calibLess(&h[m], &last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return h, top
}

// countObserver is the cheapest possible live sink: the measured hooked
// cost is then the hook dispatch itself, not sink work.
type countObserver struct {
	hops, dels int
}

func (c *countObserver) OnHop(simnet.HopEvent)     { c.hops++ }
func (c *countObserver) OnDeliver(simnet.Delivery) { c.dels++ }

func main() {
	out := flag.String("o", "BENCH_engine.json", "output file (\"-\" for stdout)")
	quick := flag.Bool("quick", false, "medians over 9 runs instead of 21")
	check := flag.Bool("check", false, "fail if allocs/event exceeds 10x, or ns/event per calibration ns/op exceeds 1+tolerance of, the values recorded in -against")
	tolerance := flag.Float64("tolerance", 0.15, "regression tolerance of the calibrated ns/event ratio for -check (0.15 = fail beyond +15% of recorded)")
	against := flag.String("against", "BENCH_engine.json", "recorded report -check compares against")
	flag.Parse()

	g := topology.MustHypercube(10)
	cycles, err := hamilton.Hypercube(10)
	if err != nil {
		fail(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		fail(err)
	}
	p := simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}

	runs := 21
	if *quick {
		runs = 9
	}
	nodes := float64(g.N())
	cal := newCalibrator()
	// measure times runs Q10 ATA broadcasts interleaved with calibration
	// passes (one before each run, one after the last) and reports
	// medians. Each run is scaled by the passes on either side of it, so
	// the two share the host's conditions of the moment (frequency,
	// noisy neighbours); the median of those per-run ratios then
	// discards the runs where they did not. Allocation figures cover all
	// runs; the live heap is read after the last one.
	measure := func(obs simnet.Observer, runs int) metrics {
		cfg := core.Config{Eta: 2, Params: p, SkipCopies: true, Observe: obs}
		var m metrics
		var ms0, ms1 runtime.MemStats
		var events int64
		ns := make([]float64, runs)
		calib := make([]float64, runs)
		ratio := make([]float64, runs)
		before := cal.pass()
		for i := 0; i < runs; i++ {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			res, err := x.Run(cfg)
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				fail(err)
			}
			if res.Contentions != 0 {
				fail(fmt.Errorf("contention in dedicated run"))
			}
			after := cal.pass()
			ns[i] = float64(elapsed.Nanoseconds()) / float64(res.Events)
			calib[i] = (before + after) / 2
			ratio[i] = ns[i] / calib[i]
			before = after
			m.AllocsPerEvent += float64(ms1.Mallocs - ms0.Mallocs)
			m.BytesPerEvent += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			events += res.Events
			m.EventsPerRun = res.Events
		}
		m.NsPerEvent = median(ns)
		m.EventsPerSec = 1e9 / m.NsPerEvent
		m.CalibNsPerOp = median(calib)
		m.Calibrated = median(ratio)
		m.AllocsPerEvent /= float64(events)
		m.BytesPerEvent /= float64(events)
		m.PeakHeapBytes = ms1.HeapAlloc - calibBytes
		m.HeapBytesPerNode = float64(m.PeakHeapBytes) / nodes
		return m
	}
	cur := measure(nil, runs)
	counter := &countObserver{}
	// The hooked run is graded on allocations only; a third of the runs
	// suffices for its hook-overhead figure.
	hooked := measure(counter, runs/3)
	if counter.hops == 0 || counter.dels == 0 {
		fail(fmt.Errorf("hooked run observed %d hops, %d deliveries", counter.hops, counter.dels))
	}
	rep := report{
		Benchmark:      "EngineQ10ATA",
		Date:           time.Now().UTC().Format("2006-01-02"),
		Host:           thisHost(),
		Runs:           runs,
		Current:        cur,
		Baseline:       baseline,
		Speedup:        cur.EventsPerSec / baseline.EventsPerSec,
		Hooked:         &hooked,
		HookOverheadNs: hooked.NsPerEvent - cur.NsPerEvent,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("EngineQ10ATA: %.3g events/s, %.1f ns/event, %.2g allocs/event (%.2fx baseline) -> %s\n",
		cur.EventsPerSec, cur.NsPerEvent, cur.AllocsPerEvent, rep.Speedup, *out)
	fmt.Printf("calibration: %.1f ns/op, calibrated ratio %.4f (%s, %d cores, GOMAXPROCS=%d, %s)\n",
		cur.CalibNsPerOp, cur.Calibrated, rep.Host.CPUModel, rep.Host.Cores, rep.Host.GoMaxProcs, rep.Host.GoVersion)
	fmt.Printf("observer hook: %.1f ns/event hooked (%+.1f ns/event vs nil hook), %.2g allocs/event\n",
		hooked.NsPerEvent, rep.HookOverheadNs, hooked.AllocsPerEvent)
	fmt.Printf("memory: %.1f MiB live heap after run, %.0f bytes/node\n",
		float64(cur.PeakHeapBytes)/(1<<20), cur.HeapBytesPerNode)
	if *check {
		if err := checkAllocs(cur, *against); err != nil {
			fail(err)
		}
		// The hook contract: observing adds dispatch time, never heap
		// traffic. Gate the hooked run against the same recorded
		// nil-hook envelope.
		if err := checkAllocs(hooked, *against); err != nil {
			fail(fmt.Errorf("with observer attached: %w", err))
		}
		// Calibrated ns/event gate. The median over interleaved runs is
		// the noise damping; a retry would only give a real slowdown
		// more chances to slip under the limit.
		if err := checkSpeed(cur, *against, *tolerance); err != nil {
			fail(err)
		}
		fmt.Printf("enginebench: allocs/event %.3g nil-hook, %.3g hooked — both within 10x of recorded — ok\n",
			cur.AllocsPerEvent, hooked.AllocsPerEvent)
		fmt.Printf("enginebench: calibrated ratio %.4f within +%.0f%% of recorded — ok\n",
			cur.Calibrated, *tolerance*100)
	}
}

// checkSpeed is the wall-clock regression gate: the measured calibrated
// ratio (engine ns/event over the calibration ns/op timed alongside it)
// must stay within 1+tolerance of the recorded report's. Both terms
// scale with the host, so the gate holds on machines other than the one
// that recorded the report.
func checkSpeed(cur metrics, path string, tolerance float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("check: reading recorded report: %w", err)
	}
	var rec report
	if err := json.Unmarshal(buf, &rec); err != nil {
		return fmt.Errorf("check: parsing %s: %w", path, err)
	}
	if rec.Current.Calibrated <= 0 {
		return fmt.Errorf("check: %s records non-positive calibrated ratio %g", path, rec.Current.Calibrated)
	}
	limit := (1 + tolerance) * rec.Current.Calibrated
	if cur.Calibrated > limit {
		return fmt.Errorf("check: calibrated ns/event regressed: measured ratio %.4f > limit %.4f (recorded %.4f +%.0f%% in %s; %.1f ns/event, %.1f ns/op calibration)",
			cur.Calibrated, limit, rec.Current.Calibrated, tolerance*100, path, cur.NsPerEvent, cur.CalibNsPerOp)
	}
	return nil
}

// checkAllocs is the regression gate: the measured allocs/event must
// stay within 10x of the recorded report's value. The flat-array engine
// allocates only per-run scratch, so a leak into the per-event hot path
// multiplies this figure by orders of magnitude and trips the gate long
// before it shows up in wall-clock noise.
func checkAllocs(cur metrics, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("check: reading recorded report: %w", err)
	}
	var rec report
	if err := json.Unmarshal(buf, &rec); err != nil {
		return fmt.Errorf("check: parsing %s: %w", path, err)
	}
	if rec.Current.AllocsPerEvent <= 0 {
		return fmt.Errorf("check: %s records non-positive allocs/event %g", path, rec.Current.AllocsPerEvent)
	}
	limit := 10 * rec.Current.AllocsPerEvent
	if cur.AllocsPerEvent > limit {
		return fmt.Errorf("check: allocs/event regressed: measured %g > limit %g (10x recorded %g in %s)",
			cur.AllocsPerEvent, limit, rec.Current.AllocsPerEvent, path)
	}
	return nil
}

// median returns the median of xs (reordering xs).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "enginebench:", err)
	os.Exit(1)
}
