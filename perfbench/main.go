// Command perfbench is the repository's benchmark: one process that runs
// one named workload for a fixed time, checks every output for
// correctness, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload ata-q11|campaign|stream --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off on the workload's own operations. With --trace 1 it makes a
// separate traced run that records spans around every call the benchmark
// makes into the repository's layers, writes them to
// .bench_build/traces/, and reports the tracing overhead against an
// untraced pass of the same work plus the per-layer metrics of the layer
// probes. Every workload reports the same metric names. README.md in this
// directory says why each workload exists and which end-to-end metric
// each layer metric moves.
//
// Exit codes: 0 when every check passed, 1 when a correctness check
// failed (the result line is still printed, with "correct": false), 2 on
// a usage or set-up error, when the workload outran its deadline, or
// when the metrics differ from the ones BENCHMARK.json names (no result
// line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation shares with its helpers.
type run struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil when --trace 0
	res     result
	// problems lists every failed correctness check, printed to stderr.
	problems []string
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness failure unless ok holds.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// workload runs against r for r.seconds and fills r.res. The whole
// invocation, set-up included, must end within 2×seconds + slack (at
// most maxDeadline): a hang becomes a failed run, not a stuck one.
type workload struct {
	run   func(r *run) error
	slack time.Duration
}

var workloads = map[string]workload{
	"ata-q11":  {run: runATA, slack: 60 * time.Second},
	"campaign": {run: runCampaign, slack: 90 * time.Second},
	"stream":   {run: runStream, slack: 60 * time.Second},
}

// The metrics BENCHMARK.json names. Every workload reports all of
// them: the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1. A run that misses one, or reports another, has a bug in the
// benchmark and prints no result.
var (
	endToEndMetrics = []string{
		"setup_s", "ops_per_s", "cpu_us_per_op", "alloc_kib_per_op", "latency_p50_ms", "latency_p90_ms",
	}
	perLayerMetrics = []string{
		"hamilton.decompose_ms", "core.new_ms", "core.stage_packets_ms",
		"simnet.events", "simnet.ns_per_event", "simnet.ledger_ns_per_event",
		"simnet.matrix_ns_per_event", "simnet.ledger_verify_ms", "observe.metrics_hook_ns_per_event",
		"campaign.grade_us_per_placement", "reliable.evaluate_ihc_ms", "reliable.evaluate_timed_ms",
		"reliable.evaluate_repaired_ms", "fault.compile_us",
		"repair.naks_per_placement", "repair.retransmissions_per_placement", "repair.recovered_per_attempt",
		"reliable.sign_ns", "reliable.verify_ns",
		"transport.frame_encode_ns", "transport.frame_decode_ns", "transport.frame_sign_ns", "transport.frame_verify_ns",
		"stream.batch_encode_ns", "stream.batch_decode_ns", "stream.ingress_submit_ns",
		"transport.loopback_hop_us", "transport.tcp_hop_us",
		"trace.overhead_pct", "trace.traced_cpu_us_per_op", "trace.untraced_cpu_us_per_op",
	}
)

// checkNames reports how the reported metrics differ from want.
func checkNames(got map[string]metric, want []string) error {
	var missing, extra []string
	named := map[string]bool{}
	for _, n := range want {
		named[n] = true
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range got {
		if !named[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing %v, not in BENCHMARK.json %v", missing, extra)
	}
	return nil
}

// maxDeadline keeps every invocation under three minutes.
const maxDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: ata-q11, campaign or stream")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		usage(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		usage(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		usage(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		res:     result{Metrics: map[string]metric{}},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	limit := 2*r.seconds + w.slack
	if limit > maxDeadline {
		limit = maxDeadline
	}
	// The workloads run in this process only, so exiting stops them all.
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s exceeded its %s deadline\n", *name, limit)
		os.Exit(2)
	})
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d host: %s\n",
		*name, *seed, *seconds, *trace, hostLine())

	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	want := endToEndMetrics
	if r.tr != nil {
		want = perLayerMetrics
	}
	if err := checkNames(r.res.Metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	r.res.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		os.Exit(1)
	}
}

func usage(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

// hostLine names the host the figures come from as far as the runtime
// knows it (the CPU model is recorded in README.md).
func hostLine() string {
	return fmt.Sprintf("%s/%s, nproc=%d, GOMAXPROCS=%d, %s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
