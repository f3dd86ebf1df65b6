package main

import (
	"fmt"
	"time"

	"ihc"
	"ihc/internal/core"
	"ihc/internal/model"
	"ihc/internal/topology"
)

// ata-q11: one fault-free full IHC ATA broadcast on Q11 (N = 2048,
// γ = 10, η = 2) per operation, counters-only copy ledger on. The
// sequential event loop does almost all of the work, and Q11's link and
// calendar state outgrows L2. The input is fixed by the topology; the
// seed does not change it.
const (
	ataDim = 11
	ataEta = 2
)

// ataConfig is the broadcast every ata-q11 operation runs.
func ataConfig() core.Config {
	return core.Config{Eta: ataEta, Params: ihc.DefaultParams(), Ledger: true, SkipCopies: true}
}

// checkBroadcast applies the Theorem 4 finish, zero contention, the
// exact event count γN(N−1) and, when cfg kept one, the exact γ-copy
// ledger to one fault-free broadcast on x.
func checkBroadcast(r *run, x *core.IHC, cfg core.Config, res *core.Result, parent, op int) bool {
	p := cfg.Params
	n, gamma := x.N(), x.Gamma()
	want := model.IHCBest(model.Params{TauS: p.TauS, Alpha: p.Alpha, Mu: p.Mu, D: p.D}, n, cfg.Eta)
	events := int64(gamma) * int64(n) * int64(n-1)
	ok := r.check(res.Finish == want, "%s: finish %d, Theorem 4 gives %d", x.Graph().Name(), res.Finish, want)
	ok = r.check(res.Contentions == 0, "%s: %d contentions, want 0", x.Graph().Name(), res.Contentions) && ok
	ok = r.check(res.Events == events, "%s: %d events, want γN(N−1) = %d", x.Graph().Name(), res.Events, events) && ok
	if cfg.Ledger {
		s := r.tr.begin("simnet.CopyLedger.VerifyATA", parent, op)
		err := res.Ledger.VerifyATA(gamma)
		r.tr.end(s)
		ok = r.check(err == nil, "%s: ledger: %v", x.Graph().Name(), err) && ok
	}
	return ok
}

func runATA(r *run) error {
	x, err := timeSetup(r, func(parent, op int) (*core.IHC, error) {
		return buildIHC(r.tr, parent, op, func() (*topology.Graph, error) { return topology.Hypercube(ataDim) })
	})
	if err != nil {
		return err
	}
	cfg := ataConfig()

	// broadcast runs and checks one operation, with the collector
	// paused: with it running, the timing of collections moved the wall
	// time of a broadcast between runs.
	broadcast := func() (cost, error) {
		var c cost
		var err error
		gcPaused(func() {
			op := r.tr.op()
			root := r.tr.begin("ata", 0, op)
			defer r.tr.end(root)
			var res *core.Result
			c, err = measure(func() error {
				s := r.tr.begin("core.IHC.Run", root, op)
				defer r.tr.end(s)
				var err error
				res, err = x.Run(cfg)
				return err
			})
			if err != nil {
				err = fmt.Errorf("ATA broadcast: %w", err)
				return
			}
			r.res.Attempted++
			if !checkBroadcast(r, x, cfg, res, root, op) {
				r.res.Failed++
			}
		})
		return c, err
	}

	if r.tr != nil {
		// Untraced and traced broadcasts alternate, so that drift on the
		// host hits both alike.
		tr := r.tr
		var traced, untraced []float64
		for i := 0; i < 2; i++ {
			r.tr = nil
			c, err := broadcast()
			r.tr = tr
			if err != nil {
				return err
			}
			untraced = append(untraced, cpuUsPerOp(c, 1))
			if c, err = broadcast(); err != nil {
				return err
			}
			traced = append(traced, cpuUsPerOp(c, 1))
		}
		setOverhead(r, median(traced), median(untraced))
		return probeLayers(r)
	}

	var samples []sample
	var busy time.Duration
	start := time.Now()
	for another(r, start, len(samples), busy) {
		c, err := broadcast()
		if err != nil {
			return err
		}
		busy += c.wall
		samples = append(samples, sample{ops: 1, c: c})
	}
	w := walls(samples)
	setEndToEnd(r, samples, quantileDur(w, 0.5), quantileDur(w, 0.9))
	return nil
}
