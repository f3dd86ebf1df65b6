// Package cluster spins up a full IHC broadcast cluster — one
// stream.Node per network node — over either the in-process loopback
// mesh or real TCP sockets, optionally behind the chaos layer, runs a
// stream of ATA epochs, and renders the per-node γ-copy verdicts. A
// one-shot round is a one-epoch stream. It is the harness behind the
// transport and streaming tests, `ihcd -soak` and the benchmark's
// stream workload; its delivery-multiset checker is shared with the
// multi-process `cmd/ihcd -launch`.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/core"
	"ihc/internal/simnet"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// Config shapes one cluster run.
type Config struct {
	IHC *core.IHC
	Eta int
	// KeySeed derives the cluster's HMAC keyring.
	KeySeed int64
	// TCP selects real sockets; false runs the loopback mesh.
	TCP bool
	// Chaos, when non-nil, interposes the compiled fault plan on every
	// link (loopback filter or per-arc TCP proxies) and schedules the
	// plan's node crashes. Its Epoch is overridden with the cluster's.
	Chaos *chaos.Config
	// Timing. StageDur must comfortably exceed per-hop latency ×
	// longest route for fault-free runs to finish inside the schedule.
	StageDur   time.Duration
	HopLatency time.Duration
	Slack      time.Duration
	// Retry/Breaker shape the repair backoff and (TCP) per-peer
	// circuit breakers.
	Retry       transport.BackoffConfig
	Breaker     transport.BreakerConfig
	MaxAttempts int
	// Timeout bounds the whole run. Default 30s.
	Timeout time.Duration
	// SetupDelay is how far in the future the cluster epoch (stage-0
	// start) is placed, leaving construction time. Default 100ms.
	SetupDelay time.Duration
}

func (c Config) defaulted() Config {
	if c.StageDur <= 0 {
		c.StageDur = 50 * time.Millisecond
	}
	if c.HopLatency <= 0 {
		c.HopLatency = time.Millisecond
	}
	if c.Slack <= 0 {
		c.Slack = c.StageDur
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.SetupDelay <= 0 {
		c.SetupDelay = 100 * time.Millisecond
	}
	return c
}

// seededFor decorrelates per-node retry jitter while keeping the whole
// cluster deterministic under one seed.
func seededFor(b transport.BackoffConfig, v topology.Node) transport.BackoffConfig {
	if b.Seed != 0 {
		b.Seed = b.Seed*6364136223846793005 + int64(v) + 1
	}
	return b
}

// SimnetCopies runs the discrete-event engine on x's schedule at η and
// returns its copy matrix — the reference a wall-clock delivery
// multiset is compared against.
func SimnetCopies(x *core.IHC, eta int) (*simnet.CopyMatrix, error) {
	sim, err := x.Run(core.Config{Eta: eta, Params: simnet.Params{}.Defaulted()})
	if err != nil {
		return nil, fmt.Errorf("cluster: simnet reference run: %w", err)
	}
	if sim.Copies == nil {
		return nil, fmt.Errorf("cluster: simnet reference run recorded no copy matrix")
	}
	return sim.Copies, nil
}

// CheckDelivery checks receiver r's delivery multiset — copies[s]
// lists the channels r's copies of source s arrived on: from every
// other source exactly one copy per channel 0..γ-1, and, when sim is
// non-nil, as many copies as the engine's CopyMatrix records for
// (r, s).
func CheckDelivery(x *core.IHC, r topology.Node, copies map[topology.Node][]uint8, sim *simnet.CopyMatrix) error {
	gamma := x.Gamma()
	for s := 0; s < x.N(); s++ {
		src := topology.Node(s)
		if src == r {
			continue
		}
		chans := append([]uint8(nil), copies[src]...)
		if sim != nil {
			if want := sim.Get(r, src); len(chans) != want {
				return fmt.Errorf("cluster: node %d holds %d copies from source %d, simnet delivered %d", r, len(chans), s, want)
			}
		}
		if len(chans) != gamma {
			return fmt.Errorf("cluster: node %d holds %d copies from source %d, want γ=%d", r, len(chans), s, gamma)
		}
		sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })
		for j := 0; j < gamma; j++ {
			if int(chans[j]) != j {
				return fmt.Errorf("cluster: node %d's copies from source %d arrived on channels %v, want one per channel 0..%d", r, s, chans, gamma-1)
			}
		}
	}
	return nil
}

// CompareWithSimnet checks every epoch of a wall-clock run against the
// discrete-event engine on the same schedule: each node's per-epoch
// delivery multiset must pass CheckDelivery with the engine's
// CopyMatrix. This is the acceptance bridge between the two transports
// — same topology, same schedule, same multiset.
func CompareWithSimnet(cfg Config, res *StreamResult) error {
	sim, err := SimnetCopies(cfg.IHC, cfg.Eta)
	if err != nil {
		return err
	}
	for _, results := range res.PerNode {
		for _, er := range results {
			if err := CheckDelivery(cfg.IHC, er.Node, er.Copies, sim); err != nil {
				return fmt.Errorf("epoch %d: %w", er.Epoch, err)
			}
		}
	}
	return nil
}
