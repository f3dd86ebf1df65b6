// Command atasim runs one ATA reliable broadcast on the simulator and
// reports timing, contention, and delivery statistics.
//
// Usage:
//
//	atasim -net Q6 -algo ihc -eta 2
//	atasim -net Q6 -algo ihc -eta 2,4,8     # sweep η on the worker pool
//	atasim -net SQ8 -algo vsq
//	atasim -net Q6 -algo ihc -eta 2 -rho 0.5 -seed 7
//	atasim -net H3 -algo ks -saturated
//	atasim -net Q6 -algo frs
//	atasim -net Q6 -algo vrs
//	atasim -net Q6 -algo ihc -eta 2 -metrics            # per-link/stage aggregates
//	atasim -net Q6 -algo ihc -eta 2 -oracle             # live Theorem 3/4 verification
//	atasim -net Q4 -algo ihc -eta 2 -trace run.jsonl    # per-hop JSONL stream
//	atasim -net Q4 -algo ihc -eta 2 -trace run.json -tracefmt chrome
//	atasim -net Q10 -algo ihc -eta 2 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"ihc/internal/baseline/atarun"
	"ihc/internal/baseline/frs"
	"ihc/internal/baseline/ks"
	"ihc/internal/baseline/rs"
	"ihc/internal/baseline/vsq"
	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/observe"
	"ihc/internal/profiling"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// stopProf finishes any active profiles; fail() runs it so profiles
// survive error exits too.
var stopProf = func() {}

func main() {
	var (
		net       = flag.String("net", "Q4", "network: Q<m>, SQ<m>, or H<m>")
		algo      = flag.String("algo", "ihc", "algorithm: ihc, vrs, ks, vsq, frs")
		eta       = flag.String("eta", "2", "IHC interleaving distance η, or a comma-separated list to sweep")
		workers   = flag.Int("workers", 0, "worker-pool width for η sweeps (0 = GOMAXPROCS, 1 = sequential)")
		overlap   = flag.Bool("overlap", false, "IHC: overlap stages (modified algorithm)")
		taus      = flag.Int64("taus", 100, "startup τ_S (ticks)")
		alpha     = flag.Int64("alpha", 20, "cut-through delay α (ticks)")
		mu        = flag.Int("mu", 2, "packet length μ (FIFO units)")
		d         = flag.Int64("d", 37, "queueing delay D (ticks)")
		rho       = flag.Float64("rho", 0, "background link load ρ in [0,1)")
		seed      = flag.Int64("seed", 1, "background traffic seed")
		saturated = flag.Bool("saturated", false, "heavy-traffic limiting regime (Table IV)")
		verify    = flag.Bool("verify", true, "verify the γ-copy ATA delivery postcondition")
		ledgerF   = flag.Bool("ledger", false, "ihc: verify the ATA postcondition with the O(N) counters-only copy ledger instead of the O(N²) matrix — the memory-bounded mode for Q14+ scale runs")
		metricsF  = flag.Bool("metrics", false, "aggregate per-link/node/stage metrics and print a summary")
		oracleF   = flag.Bool("oracle", false, "ihc: verify Theorem 3/4 invariants live from the hop stream")
		oracleS   = flag.Bool("oracle-strict", false, "like -oracle but asserts contention-freeness unconditionally — exits non-zero on any contention, even at η < μ")
		tracePath = flag.String("trace", "", "write the per-hop observer stream to this file (\"-\" for stdout)")
		traceFmt  = flag.String("tracefmt", "jsonl", "trace format: jsonl or chrome (chrome://tracing / Perfetto)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	stop, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	stopProf = stop
	defer stop()

	p := simnet.Params{
		TauS: simnet.Time(*taus), Alpha: simnet.Time(*alpha), Mu: *mu,
		D: simnet.Time(*d), Rho: *rho, Seed: *seed,
	}
	g, err := buildGraph(*net)
	if err != nil {
		fail(err)
	}

	trace, traceDone, err := openTrace(*tracePath, *traceFmt)
	if err != nil {
		fail(err)
	}

	switch *algo {
	case "ihc":
		etas, err := parseEtas(*eta)
		if err != nil {
			fail(err)
		}
		cycles, err := hamilton.Decompose(g)
		if err != nil {
			fail(err)
		}
		x, err := core.New(g, cycles)
		if err != nil {
			fail(err)
		}
		// The IHC instance is read-only during Run (each call builds a
		// fresh simnet.Network), so the η sweep points fan out across a
		// bounded pool; results print in input order.
		type out struct {
			res  *core.Result
			err  error
			met  *observe.Metrics
			orc  *observe.Oracle
			done bool
		}
		outs := make([]out, len(etas))
		w := *workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > len(etas) {
			w = len(etas)
		}
		if trace != nil {
			// A trace sink is single-stream: run the sweep sequentially so
			// the exported stream is the engine's deterministic order.
			w = 1
		}
		runOne := func(i int) {
			select {
			case <-ctx.Done():
				return // sweep interrupted: leave the point unrun
			default:
			}
			var sinks []simnet.Observer
			if trace != nil {
				sinks = append(sinks, trace)
			}
			var met *observe.Metrics
			if *metricsF {
				met = observe.NewMetrics()
				sinks = append(sinks, met)
			}
			var orc *observe.Oracle
			if *oracleF || *oracleS {
				n := g.N()
				// Theorem 3 promises contention-freeness only on a
				// dedicated, unmodified run with η >= μ and N mod η = 0;
				// elsewhere the oracle counts contention without failing —
				// unless -oracle-strict demands a clean run regardless.
				free := *oracleS ||
					(*rho == 0 && !*saturated && !*overlap && etas[i] >= p.Mu && n%etas[i] == 0)
				oc := observe.OracleConfig{
					X: x, Params: p, Eta: etas[i],
					ExpectContentionFree: free,
					ExpectFinish:         -1,
					Light:                n > 512,
				}
				if free && n <= 256 {
					oc.ExpectCopies = x.Gamma()
				}
				o, err := observe.NewOracle(oc)
				if err != nil {
					outs[i] = out{err: err, done: true}
					return
				}
				orc = o
				sinks = append(sinks, orc)
			}
			res, err := x.Run(core.Config{
				Eta: etas[i], Params: p, Overlap: *overlap, Saturated: *saturated,
				SkipCopies: !*verify || *ledgerF, Ledger: *ledgerF && *verify,
				Observe: observe.Tee(sinks...),
			})
			outs[i] = out{res, err, met, orc, true}
		}
		if w <= 1 {
			for i := range etas {
				runOne(i)
			}
		} else {
			idx := make(chan int)
			var wg sync.WaitGroup
			for j := 0; j < w; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range idx {
						runOne(i)
					}
				}()
			}
		dispatch:
			for i := range etas {
				select {
				case idx <- i:
				case <-ctx.Done():
					break dispatch
				}
			}
			close(idx)
			wg.Wait()
		}
		printed := false
		for i, o := range outs {
			if !o.done {
				continue // skipped after an interrupt
			}
			if o.err != nil {
				fail(o.err)
			}
			if printed {
				fmt.Println()
			}
			printed = true
			res := o.res
			fmt.Printf("IHC on %s: η=%d γ=%d\n", g.Name(), etas[i], x.Gamma())
			fmt.Printf("finish:       %d ticks\n", res.Finish)
			fmt.Printf("injections:   %d packets (γN)\n", res.Injections)
			fmt.Printf("deliveries:   %d copies (γN(N-1))\n", res.Deliveries)
			fmt.Printf("cut-throughs: %d   buffered: %d   stalls: %d\n", res.CutThroughs, res.BufferedHops, res.Stalls)
			fmt.Printf("contentions:  %d   bg-blocked: %d\n", res.Contentions, res.BgBlocked)
			fmt.Printf("events:       %d simulator events\n", res.Events)
			fmt.Printf("utilization:  %.3f of link capacity\n", res.Utilization(2*g.M()))
			if *verify && res.Copies != nil {
				if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
					fail(fmt.Errorf("ATA postcondition violated: %w", err))
				}
				fmt.Printf("verified:     every node holds %d copies of every other node's message\n", x.Gamma())
			}
			if res.Ledger != nil {
				if err := res.Ledger.VerifyATA(x.Gamma()); err != nil {
					fail(fmt.Errorf("ATA postcondition violated: %w", err))
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Printf("verified:     every node holds %d copies of every other node's message (O(N) ledger)\n", x.Gamma())
				fmt.Printf("memory:       %.1f MiB heap in use, %.1f MiB from OS\n",
					float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20))
			}
			if o.orc != nil {
				if err := o.orc.Finalize(); err != nil {
					fail(fmt.Errorf("oracle: %w", err))
				}
				st := o.orc.Stats()
				fmt.Printf("oracle:       %d hops checked, %d contentions, peak FIFO %d flits — all invariants hold\n",
					st.DataHops, st.Contentions, st.PeakOccupancy)
			}
			if o.met != nil {
				fmt.Printf("metrics:      %s\n", o.met.Snapshot().Summary())
			}
		}

	case "vrs", "ks", "vsq":
		if *oracleF || *oracleS {
			fail(fmt.Errorf("-oracle checks IHC cycle invariants; it does not apply to %s", *algo))
		}
		if *ledgerF {
			fail(fmt.Errorf("-ledger is the IHC counters-only mode; it does not apply to %s", *algo))
		}
		var met *observe.Metrics
		var sinks []simnet.Observer
		if trace != nil {
			sinks = append(sinks, trace)
		}
		if *metricsF {
			met = observe.NewMetrics()
			sinks = append(sinks, met)
		}
		res, gamma, err := runSerialized(*algo, g, p, atarun.Options{
			Copies: *verify, Saturated: *saturated, Observe: observe.Tee(sinks...),
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s-ATA on %s (serialized, one broadcast per node)\n", strings.ToUpper(*algo), g.Name())
		fmt.Printf("finish:       %d ticks\n", res.Finish)
		fmt.Printf("per broadcast: %d ticks\n", res.BroadcastFinish[0])
		fmt.Printf("cut-throughs: %d   buffered: %d   contentions: %d\n", res.CutThroughs, res.BufferedHops, res.Contentions)
		if *verify && res.Copies != nil {
			if err := res.Copies.VerifyATA(gamma); err != nil {
				fail(fmt.Errorf("ATA postcondition violated: %w", err))
			}
			fmt.Printf("verified:     every node holds %d copies of every other node's message\n", gamma)
		}
		if met != nil {
			fmt.Printf("metrics:      %s\n", met.Snapshot().Summary())
		}

	case "frs":
		if trace != nil || *metricsF || *oracleF || *oracleS {
			fail(fmt.Errorf("frs runs on the lock-step simulator, which has no per-hop observer"))
		}
		if *ledgerF {
			fail(fmt.Errorf("-ledger is the IHC counters-only mode; it does not apply to frs"))
		}
		m, ok := hypercubeDim(g)
		if !ok {
			fail(fmt.Errorf("frs runs on hypercubes only, got %s", g.Name()))
		}
		res, err := frs.Run(m, p, *verify)
		if err != nil {
			fail(err)
		}
		fmt.Printf("FRS on %s (lock-step store-and-forward with merging)\n", g.Name())
		fmt.Printf("finish:       %d ticks\n", res.Finish)
		fmt.Printf("injections:   %d link-step packets\n", res.Injections)
		fmt.Printf("contentions:  %d\n", res.Contentions)
		if *verify && res.Copies != nil {
			if err := res.Copies.VerifyATA(m); err != nil {
				fail(fmt.Errorf("ATA postcondition violated: %w", err))
			}
			fmt.Printf("verified:     every node holds %d copies of every other node's message\n", m)
		}

	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}

	if err := traceDone(); err != nil {
		fail(err)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "atasim: interrupted; completed sweep points flushed")
		os.Exit(3)
	}
}

// openTrace builds the requested trace exporter. The returned done func
// flushes the exporter and closes the file; both are no-ops when no
// trace was requested.
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

func runSerialized(algo string, g *topology.Graph, p simnet.Params, opts atarun.Options) (*atarun.Result, int, error) {
	switch algo {
	case "vrs":
		m, ok := hypercubeDim(g)
		if !ok {
			return nil, 0, fmt.Errorf("vrs runs on hypercubes only, got %s", g.Name())
		}
		res, err := rs.ATA(m, p, opts)
		return res, m, err
	case "ks":
		m, ok := sizeOf(g, "H")
		if !ok {
			return nil, 0, fmt.Errorf("ks runs on hex meshes only, got %s", g.Name())
		}
		res, err := ks.ATA(m, p, opts)
		return res, 6, err
	default: // vsq
		m, ok := sizeOf(g, "SQ")
		if !ok {
			return nil, 0, fmt.Errorf("vsq runs on square tori only, got %s", g.Name())
		}
		res, err := vsq.ATA(m, p, opts)
		return res, 4, err
	}
}

// parseEtas parses the -eta flag: a single η or a comma-separated sweep.
func parseEtas(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	etas := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -eta value %q (want positive integers, comma-separated)", part)
		}
		etas = append(etas, v)
	}
	return etas, nil
}

func hypercubeDim(g *topology.Graph) (int, bool) {
	return sizeOf(g, "Q")
}

func sizeOf(g *topology.Graph, prefix string) (int, bool) {
	name := g.Name()
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	m, err := strconv.Atoi(name[len(prefix):])
	return m, err == nil
}

// buildGraph resolves the -net name through the decomposition registry,
// so every registered family (Q, SQ, H, T, TQ, KT) is simulatable
// without per-family dispatch here. Names are case-insensitive.
func buildGraph(name string) (*topology.Graph, error) {
	canon := strings.ReplaceAll(strings.ToUpper(name), "X", "x")
	in, err := hamilton.Parse(canon)
	if err != nil {
		keys := make([]string, 0, 8)
		for _, f := range hamilton.Families() {
			keys = append(keys, f.Key()+"...")
		}
		return nil, fmt.Errorf("cannot parse network %q (registered families: %s)", name, strings.Join(keys, ", "))
	}
	return in.Graph()
}

func fail(err error) {
	stopProf()
	fmt.Fprintln(os.Stderr, "atasim:", err)
	os.Exit(1)
}
