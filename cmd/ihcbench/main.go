// Command ihcbench regenerates the paper's evaluation: every table and
// figure, model-vs-measured, rendered as text tables.
//
// Usage:
//
//	ihcbench                  # run everything at full size
//	ihcbench -quick           # small networks (seconds)
//	ihcbench -run table2      # one experiment by id
//	ihcbench -list            # list experiment ids
//	ihcbench -workers 8       # worker-pool width (0 = GOMAXPROCS)
//	ihcbench -taus 100 -alpha 20 -mu 2 -d 37   # timing overrides
//	ihcbench -metrics         # aggregate observability metrics across all runs
//	ihcbench -run table2 -trace t2.jsonl        # per-hop stream of one experiment
//	ihcbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments — and the independent sweep points inside them — fan out
// across a bounded worker pool; results are merged in the registry's
// stable order, so stdout is byte-identical for every -workers value.
// -metrics attaches a per-worker observability sink to every simulation;
// the per-worker aggregates merge order-independently, so the reported
// snapshot is also identical for every -workers value. -trace is
// single-stream: it forces the pool to width 1 and requires -run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ihc/internal/harness"
	"ihc/internal/observe"
	"ihc/internal/profiling"
	"ihc/internal/simnet"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "use small network sizes")
		run       = flag.String("run", "", "run a single experiment id (default: all)")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		workers   = flag.Int("workers", 0, "worker-pool width for experiments and sweep points (0 = GOMAXPROCS, 1 = sequential)")
		taus      = flag.Int64("taus", 100, "message startup time τ_S (ticks)")
		alpha     = flag.Int64("alpha", 20, "cut-through delay α (ticks)")
		mu        = flag.Int("mu", 2, "packet length μ (FIFO-buffer units)")
		d         = flag.Int64("d", 37, "queueing delay D (ticks)")
		metricsF  = flag.Bool("metrics", false, "aggregate per-link/node/stage metrics across every simulation and print a summary")
		tracePath = flag.String("trace", "", "write the per-hop observer stream to this file (\"-\" for stdout; requires -run, forces -workers 1)")
		traceFmt  = flag.String("tracefmt", "jsonl", "trace format: jsonl or chrome")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	if *tracePath != "" && *run == "" {
		fmt.Fprintln(os.Stderr, "ihcbench: -trace streams one experiment's hops; pick it with -run")
		os.Exit(2)
	}
	trace, traceDone, err := openTrace(*tracePath, *traceFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ihcbench:", err)
		os.Exit(2)
	}
	var shared *observe.Shared
	if *metricsF {
		shared = observe.NewShared()
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stats := &harness.RunStats{}
	cfg := harness.Config{
		Quick: *quick,
		Params: simnet.Params{
			TauS:  simnet.Time(*taus),
			Alpha: simnet.Time(*alpha),
			Mu:    *mu,
			D:     simnet.Time(*d),
		},
		Workers: *workers,
		Stats:   stats,
		Metrics: shared,
		Trace:   trace,
		Cancel:  ctx.Done(),
	}

	exps := harness.All()
	if *run != "" {
		e, err := harness.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	reports := harness.RunExperiments(exps, cfg)
	elapsed := time.Since(start)
	stopProf()

	interrupted := ctx.Err() != nil
	failures := 0
	skipped := 0
	for _, r := range reports {
		if errors.Is(r.Err, harness.ErrCanceled) {
			skipped++
			continue
		}
		fmt.Printf("=== %s (%s): %s ===\n", r.ID, r.Paper, r.Title)
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n\n", r.ID, r.Err)
			failures++
			continue
		}
		for _, t := range r.Tables {
			t.Render(os.Stdout)
			fmt.Println()
		}
	}

	if err := traceDone(); err != nil {
		fmt.Fprintln(os.Stderr, "ihcbench:", err)
		os.Exit(1)
	}
	if shared != nil {
		fmt.Printf("=== metrics ===\n%s\n", shared.Snapshot().Summary())
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if trace != nil {
		w = 1
	}
	fmt.Fprintf(os.Stderr, "%s; %v elapsed on %d worker(s)\n",
		stats.Summary(), elapsed.Round(time.Millisecond), w)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failures)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "ihcbench: interrupted; %d experiment(s) skipped, completed tables flushed\n", skipped)
		os.Exit(3)
	}
}

// openTrace builds the requested trace exporter; done flushes and
// closes. Both are no-ops when no trace was requested.
func openTrace(path, format string) (simnet.Observer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	var w io.Writer = os.Stdout
	var file *os.File
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		w, file = f, f
	}
	closeFile := func() error {
		if file != nil {
			return file.Close()
		}
		return nil
	}
	switch format {
	case "jsonl":
		j := observe.NewJSONL(w)
		return j, func() error {
			if err := j.Flush(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	case "chrome":
		ct := observe.NewChromeTrace(w)
		return ct, func() error {
			if err := ct.Close(); err != nil {
				closeFile()
				return err
			}
			return closeFile()
		}, nil
	}
	closeFile()
	return nil, nil, fmt.Errorf("unknown -tracefmt %q (want jsonl or chrome)", format)
}
