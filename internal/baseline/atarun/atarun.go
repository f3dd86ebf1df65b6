// Package atarun provides the shared execution harness for the
// "serialized" ATA reliable broadcast baselines of Section V: VRS-ATA,
// KS-ATA and VSQ-ATA all execute one node's reliable broadcast at a time,
// with node b+1's broadcast starting when node b's finishes. Each
// baseline supplies a generator producing the packet schedule of a single
// broadcast; this package chains N such broadcasts on one simulated
// network and aggregates the results.
package atarun

import (
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// Generator produces the packet schedule for one source's reliable
// broadcast, injected at the given start time. seq tags the packets'
// sequence number so packet IDs stay unique across broadcasts.
type Generator func(src topology.Node, start simnet.Time, seq int) []simnet.PacketSpec

// Options mirror the relevant simulation switches.
type Options struct {
	Copies    bool // build the delivery matrix
	Saturated bool // heavy-traffic limiting regime (Table IV)
	// Scratch optionally supplies reusable simulator working memory,
	// shared by all N chained broadcasts. Nil borrows from simnet's
	// internal pool. Must not be shared by concurrent runs.
	Scratch *simnet.Scratch
	// Observe optionally streams every performed hop and delivery of
	// all N chained broadcasts to an observability sink. Nil is the
	// fast path.
	Observe simnet.Observer
}

// Result aggregates a full serialized ATA broadcast.
type Result struct {
	Finish          simnet.Time
	BroadcastFinish []simnet.Time // completion time of each node's broadcast
	Contentions     int
	BgBlocked       int
	CutThroughs     int
	BufferedHops    int
	Injections      int
	Deliveries      int
	Events          int64
	LinkBusy        simnet.Time
	Copies          *simnet.CopyMatrix
}

// Sequential runs gen(src) for every node of g in turn on a single fresh
// network with parameters p.
func Sequential(g *topology.Graph, p simnet.Params, gen Generator, opts Options) (*Result, error) {
	net, err := simnet.New(g, p)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	if opts.Copies {
		res.Copies = simnet.NewCopyMatrix(g.N())
	}
	simOpts := simnet.Options{Copies: opts.Copies, Saturated: opts.Saturated, Observe: opts.Observe}
	start := simnet.Time(0)
	for src := 0; src < g.N(); src++ {
		r, err := net.RunScratch(gen(topology.Node(src), start, src), simOpts, opts.Scratch)
		if err != nil {
			return nil, err
		}
		res.Finish = r.Finish
		res.BroadcastFinish = append(res.BroadcastFinish, r.Finish)
		res.Contentions += r.Contentions
		res.BgBlocked += r.BgBlocked
		res.CutThroughs += r.CutThroughs
		res.BufferedHops += r.BufferedHops
		res.Injections += r.Injections
		res.Deliveries += r.Deliveries
		res.Events += r.Events
		res.LinkBusy += r.LinkBusy
		if res.Copies != nil && r.Copies != nil {
			res.Copies.Merge(r.Copies)
		}
		start = r.Finish
	}
	return res, nil
}
