package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"ihc/internal/cluster"
	"ihc/internal/core"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// stream: one fault-free cluster.RunStream on the in-process loopback
// mesh — Q3, η = 2, pipelined epochs with at most two in flight, no
// kill, no chaos. The load is an open loop: every node's generator
// submits one payload per loadInterval, every fourth one high priority,
// into an ingress with no rate limit, so a shed payload is a failure.
// Epoch latency is measured from each epoch's scheduled start.
const (
	streamDim      = 3
	streamEta      = 2
	streamPeriod   = 100 * time.Millisecond
	streamStage    = 50 * time.Millisecond
	streamHop      = time.Millisecond
	streamInflight = 2
	streamKeySeed  = 7
	loadInterval   = 2 * time.Millisecond
	loadBytes      = 64
	loadHighEvery  = 4
)

// streamCluster builds what one streaming run needs before its first
// epoch: the schedule, the keyring, the loopback mesh and one node per
// vertex. The mesh is closed again; RunStream builds its own.
func streamCluster(r *run, parent, op int) (*core.IHC, error) {
	x, err := buildIHC(r.tr, parent, op, func() (*topology.Graph, error) { return topology.Hypercube(streamDim) })
	if err != nil {
		return nil, err
	}
	s := r.tr.begin("cluster", parent, op)
	defer r.tr.end(s)
	kr := reliable.NewKeyring(x.N(), streamKeySeed)
	lb, err := transport.NewLoopback(transport.LoopbackConfig{Graph: x.Graph(), Latency: streamHop})
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	for v := 0; v < x.N(); v++ {
		ep, err := lb.Endpoint(topology.Node(v))
		if err != nil {
			return nil, err
		}
		if _, err := stream.NewNode(stream.Config{
			IHC: x, Eta: streamEta, Self: topology.Node(v), Endpoint: ep, Keyring: kr,
			Epoch0: time.Now(), Period: streamPeriod, StageDur: streamStage, HopLatency: streamHop,
			MaxInflight: streamInflight,
		}); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// streamPass is one RunStream and what it cost.
type streamPass struct {
	res        *cluster.StreamResult
	cost       cost
	everywhere int64 // payloads delivered to all N−1 peers
	expected   float64
}

func runStream(r *run) error {
	x, err := timeSetup(r, func(parent, op int) (*core.IHC, error) { return streamCluster(r, parent, op) })
	if err != nil {
		return err
	}
	if r.tr != nil {
		return traceStream(r, x)
	}
	p, err := streamOnce(r, x, r.seconds)
	if err != nil {
		return err
	}
	snap := p.res.Snapshot
	// The rate counts over the span in which epochs completed, not the
	// cluster's start-up and drain around it.
	c := p.cost
	if snap.PayloadsPerSec > 0 {
		c.wall = time.Duration(float64(snap.Payloads) / snap.PayloadsPerSec * float64(time.Second))
	}
	setEndToEnd(r, []sample{{ops: p.everywhere, c: c}}, snap.LatencyP50, snap.LatencyP90)
	fmt.Fprintf(os.Stderr, "perfbench: stream: %d epochs, %d round samples, %d payloads delivered, p99 %.3fms\n",
		p.res.Epochs, snap.EpochsCompleted, p.everywhere, snap.LatencyP99.Seconds()*1e3)
	return nil
}

// streamOnce streams for about d and checks the outcome. A payload is
// one operation: it is attempted when the generator submits it and
// counts as failed when it is shed or misses a peer.
func streamOnce(r *run, x *core.IHC, d time.Duration) (*streamPass, error) {
	epochs := int(d / streamPeriod)
	gauges := &observe.StreamGauges{}
	cfg := cluster.StreamConfig{
		Config: cluster.Config{
			IHC: x, Eta: streamEta, KeySeed: streamKeySeed,
			StageDur: streamStage, HopLatency: streamHop,
			// The seed drives retry jitter; odd, so never the unseeded 0.
			Retry: transport.BackoffConfig{
				Base: 10 * time.Millisecond, Max: 150 * time.Millisecond,
				Factor: 1.6, Jitter: 0.2, Seed: 2*r.seed + 1,
			},
			Timeout: d + 30*time.Second,
		},
		Epochs:          epochs,
		Period:          streamPeriod,
		MaxInflight:     streamInflight,
		Load:            cluster.LoadSpec{Interval: loadInterval, Bytes: loadBytes, HighEvery: loadHighEvery},
		Gauges:          gauges,
		CollectPayloads: true,
	}
	op := r.tr.op()
	s := r.tr.begin("cluster.RunStream", 0, op)
	var res *cluster.StreamResult
	c, err := measure(func() error {
		var err error
		res, err = cluster.RunStream(context.Background(), cfg)
		return err
	})
	r.tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("RunStream: %w", err)
	}
	p := &streamPass{
		res: res, cost: c,
		expected: float64(x.N()) * float64(c.wall) / float64(loadInterval),
	}
	snap := res.Snapshot
	drained := snap.SubmittedHigh + snap.SubmittedLow - snap.QueueDepth
	shed := snap.ShedHigh + snap.ShedLow

	r.check(res.Verify() == nil, "stream verdict: %v", res.Verify())
	r.check(shed == 0, "%d payloads shed (%d high)", shed, snap.ShedHigh)
	everywhere, carried := checkDeliveries(r, x, res)
	r.check(carried == drained, "%d payloads left the ingress queues but %d were carried by epoch batches", drained, carried)
	r.check(snap.Payloads == carried*int64(x.N()-1), "%d deliveries counted, want %d payloads × %d peers",
		snap.Payloads, carried, x.N()-1)
	r.check(snap.EpochsCompleted == int64(epochs*x.N()) && snap.EpochsCaughtUp == 0,
		"%d epoch rounds completed live and %d caught up, want %d live", snap.EpochsCompleted-snap.EpochsCaughtUp, snap.EpochsCaughtUp, epochs*x.N())
	r.check(everywhere > 0, "no payload reached every peer")
	p.everywhere = everywhere
	r.res.Attempted += drained + shed
	failed := shed + drained - everywhere
	if failed < 0 {
		failed = 0
	}
	r.res.Failed += failed
	return p, nil
}

// checkDeliveries checks that every copy of every (source, epoch) batch
// reached every peer with identical bytes and well-formed payloads. It
// returns how many payloads reached all N−1 peers and how many the
// batches carried in total.
func checkDeliveries(r *run, x *core.IHC, res *cluster.StreamResult) (everywhere, carried int64) {
	n, gamma := x.N(), x.Gamma()
	for e := 0; e < res.Epochs; e++ {
		for src := 0; src < n; src++ {
			var ref []byte
			good, seen := true, false
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				er := epochOf(res.PerNode[topology.Node(dst)], uint32(e))
				if er == nil || !er.Completed {
					r.check(false, "node %d has no completed epoch %d", dst, e)
					good = false
					continue
				}
				for j := 0; j < gamma; j++ {
					b, ok := er.Payloads[repair.Want{Source: topology.Node(src), Channel: uint8(j)}]
					switch {
					case !ok:
						good = r.check(false, "epoch %d: node %d lacks source %d channel %d", e, dst, src, j) && good
					case !seen:
						ref, seen = b, true
					case !bytes.Equal(b, ref):
						good = r.check(false, "epoch %d: node %d got a different batch from source %d on channel %d", e, dst, src, j) && good
					}
				}
			}
			items, err := stream.DecodeBatch(ref)
			if !r.check(err == nil, "epoch %d source %d: batch: %v", e, src, err) {
				continue
			}
			for _, it := range items {
				good = r.check(wellFormed(it.Data), "epoch %d source %d: malformed payload %x", e, src, it.Data) && good
			}
			carried += int64(len(items))
			if good {
				everywhere += int64(len(items))
			}
		}
	}
	return everywhere, carried
}

func epochOf(results []stream.EpochResult, e uint32) *stream.EpochResult {
	for i := range results {
		if results[i].Epoch == e {
			return &results[i]
		}
	}
	return nil
}

// wellFormed reports whether b is what the load generator submits: a
// run of loadBytes consecutive byte values.
func wellFormed(b []byte) bool {
	if len(b) != loadBytes {
		return false
	}
	for j := range b {
		if b[j] != b[0]+byte(j) {
			return false
		}
	}
	return true
}

// traceStream is the traced run of stream: half the time untraced, half
// with spans, then the layer probes.
func traceStream(r *run, x *core.IHC) error {
	tr := r.tr
	r.tr = nil
	untraced, err := streamOnce(r, x, r.seconds/2)
	r.tr = tr
	if err != nil {
		return err
	}
	traced, err := streamOnce(r, x, r.seconds/2)
	if err != nil {
		return err
	}
	cpuPer := func(p *streamPass) float64 { return cpuUsPerOp(p.cost, p.everywhere) }
	setOverhead(r, cpuPer(traced), cpuPer(untraced))
	snap := traced.res.Snapshot
	fmt.Fprintf(os.Stderr, "perfbench: stream: %d round samples, %d NAKs, %d repaired, peak %d in flight, generator %.0f payloads short\n",
		snap.EpochsCompleted, snap.Naks, snap.Repaired, snap.PeakInflight,
		traced.expected-float64(snap.SubmittedHigh+snap.SubmittedLow+snap.ShedHigh+snap.ShedLow))
	return probeLayers(r)
}
