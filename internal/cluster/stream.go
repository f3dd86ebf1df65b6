package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/hlc"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// This file is the cluster runner: a full cluster of stream.Nodes over
// the loopback mesh or real TCP sockets, each optionally fed by a
// synthetic client load, with the fault script executed against it —
// the chaos plan's link faults and permanent node crashes, and a
// mid-stream kill and restart of one node (the rejoin path under test).
// The kill is as close to SIGKILL as an in-process cluster gets: the
// node's context is cancelled with zero notice and every frame
// addressed to it during the downtime is read off the wire and
// discarded, exactly what a dead process's kernel does to its sockets.
// The restart hands the same endpoint to a brand-new stream.Node with
// no state but the keyring — it must rediscover the epoch via the JOIN
// handshake and catch up.

// KillSpec schedules the mid-stream kill of one node.
type KillSpec struct {
	Node topology.Node
	// At is the kill time as an offset from epoch 0's scheduled start;
	// Downtime is how long the node stays dead before restarting.
	At       time.Duration
	Downtime time.Duration
}

// LoadSpec shapes the synthetic client load each node's ingress
// receives while the stream runs.
type LoadSpec struct {
	// Interval between submissions per node; Bytes per payload.
	Interval time.Duration
	Bytes    int
	// HighEvery marks every k-th submission high-priority (0 = all low).
	HighEvery int
}

// StreamConfig shapes one cluster run. The embedded Config supplies
// topology, keys, mesh, per-round timing, retry shape, and the chaos
// plan. A one-shot round is Epochs: 1 with Payload set.
type StreamConfig struct {
	Config
	// Epochs to stream; Period between epoch starts; MaxInflight
	// overlapping rounds.
	Epochs      int
	Period      time.Duration
	MaxInflight int
	Retain      int
	// Drain bounds the post-schedule straggler window.
	Drain time.Duration
	// Ingress and Load shape the client-payload path. A zero Load
	// disables the generators (only heartbeat batches flow).
	Ingress stream.IngressConfig
	Load    LoadSpec
	// Kill, when non-nil, schedules the mid-stream kill/restart. It
	// needs the loopback mesh (TCP false); the multi-process variant is
	// cmd/ihcd's job.
	Kill *KillSpec
	// Payload, when non-nil, bypasses ingress on every node — node v's
	// epoch-e injection is Payload(v, e). One-shot rounds inject
	// reliable.TruthPayload(v).
	Payload func(v topology.Node, epoch uint32) []byte
	// Gauges aggregates cluster-wide streaming metrics (shared sink).
	Gauges *observe.StreamGauges
	// CollectPayloads retains delivered payload bytes per epoch result.
	CollectPayloads bool
}

func (c StreamConfig) defaulted() StreamConfig {
	c.Config = c.Config.defaulted()
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Period <= 0 {
		c.Period = 4 * c.StageDur
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.Retain <= 0 {
		c.Retain = 64
	}
	if c.Drain <= 0 {
		c.Drain = 5 * time.Second
	}
	return c
}

// StreamResult is one cluster run's outcome.
type StreamResult struct {
	Epoch0 time.Time
	Epochs int
	Gamma  int
	Kill   *KillSpec
	// PerNode merges each node's epoch verdicts across its lifetimes
	// (the killed node has two: pre-kill and post-rejoin).
	PerNode map[topology.Node][]stream.EpochResult
	// Crashed lists, ascending, the nodes the chaos plan crashed for
	// good; PerNode, RunErrs and Verify leave them out.
	Crashed []topology.Node
	RunErrs map[topology.Node]error
	// NaksSent sums pulls across all nodes and lifetimes.
	NaksSent int
	Snapshot observe.StreamSnapshot
}

// Verify renders the soak verdict:
//   - every survivor completed every epoch with the exact γ-copy
//     ledger postcondition (LedgerErr nil), no failed epochs;
//   - the killed node (if any) completed every epoch too, across its
//     two lifetimes — pre-kill live rounds plus post-rejoin catch-up —
//     with at least one CatchUp completion proving the rejoin path ran;
//   - no high-priority payload was shed.
func (r *StreamResult) Verify() error {
	if len(r.PerNode) == 0 {
		return fmt.Errorf("stream: no node results")
	}
	for v, results := range r.PerNode {
		killed := r.Kill != nil && r.Kill.Node == v
		done := make(map[uint32]bool)
		caughtUp := 0
		for _, er := range results {
			if er.Completed && er.LedgerErr != nil {
				return fmt.Errorf("stream: node %d epoch %d ledger: %w", v, er.Epoch, er.LedgerErr)
			}
			if er.Completed {
				done[er.Epoch] = true
				if er.CatchUp {
					caughtUp++
				}
			} else if !killed {
				return fmt.Errorf("stream: survivor %d failed epoch %d", v, er.Epoch)
			}
		}
		for e := 0; e < r.Epochs; e++ {
			if !done[uint32(e)] {
				return fmt.Errorf("stream: node %d never completed epoch %d (%d/%d done)", v, e, len(done), r.Epochs)
			}
		}
		if killed && caughtUp == 0 {
			return fmt.Errorf("stream: killed node %d completed all epochs without any catch-up round — the kill happened too late to bite", v)
		}
	}
	for v, err := range r.RunErrs {
		if err != nil {
			return fmt.Errorf("stream: node %d run: %w", v, err)
		}
	}
	if r.Snapshot.ShedHigh > 0 {
		return fmt.Errorf("stream: %d high-priority payloads shed", r.Snapshot.ShedHigh)
	}
	return nil
}

// RunStream executes one cluster run.
func RunStream(ctx context.Context, cfg StreamConfig) (*StreamResult, error) {
	cfg = cfg.defaulted()
	if cfg.IHC == nil {
		return nil, fmt.Errorf("stream: config needs an IHC schedule")
	}
	if cfg.TCP && cfg.Kill != nil {
		return nil, fmt.Errorf("stream: the kill/restart script is loopback-only")
	}
	g := cfg.IHC.Graph()
	n := g.N()
	keyring := reliable.NewKeyring(n, cfg.KeySeed)
	epoch0 := time.Now().Add(cfg.SetupDelay)

	var plan *chaos.Plan
	crashes := map[topology.Node]time.Duration{}
	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		cc.Graph = g
		cc.Epoch = epoch0
		var err error
		plan, err = chaos.NewPlan(cc)
		if err != nil {
			return nil, err
		}
		crashes = plan.Crashes()
	}
	endpoints, release, err := openEndpoints(cfg.Config, plan, epoch0)
	if err != nil {
		return nil, err
	}
	defer release()

	runCtx, cancelAll := context.WithTimeout(ctx, cfg.Timeout)
	defer cancelAll()
	serveCtx, stopServing := context.WithCancel(context.Background())
	defer stopServing()

	nodeCfg := func(v topology.Node, ep transport.Endpoint, join bool) stream.Config {
		sc := stream.Config{
			IHC:             cfg.IHC,
			Eta:             cfg.Eta,
			Self:            v,
			Endpoint:        ep,
			Keyring:         keyring,
			Epoch0:          epoch0,
			Period:          cfg.Period,
			StageDur:        cfg.StageDur,
			HopLatency:      cfg.HopLatency,
			Slack:           cfg.Slack,
			Retry:           seededFor(cfg.Retry, v),
			MaxAttempts:     cfg.MaxAttempts,
			MaxInflight:     cfg.MaxInflight,
			Retain:          cfg.Retain,
			Epochs:          cfg.Epochs,
			Drain:           cfg.Drain,
			Join:            join,
			Ingress:         cfg.Ingress,
			Clock:           hlc.New(),
			Gauges:          cfg.Gauges,
			CollectPayloads: cfg.CollectPayloads,
		}
		if cfg.Payload != nil {
			sc.Payload = func(e uint32) []byte { return cfg.Payload(v, e) }
		}
		return sc
	}

	type outcome struct {
		node topology.Node
		res  *stream.Result
		err  error
	}
	results := make(chan outcome, n+1)
	var wg sync.WaitGroup

	// Load generators stop with the whole run.
	startLoad := func(nd *stream.Node) {
		if cfg.Load.Interval <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.Load.Interval)
			defer tick.Stop()
			i := 0
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					i++
					pri := stream.Low
					if cfg.Load.HighEvery > 0 && i%cfg.Load.HighEvery == 0 {
						pri = stream.High
					}
					payload := make([]byte, cfg.Load.Bytes)
					for j := range payload {
						payload[j] = byte(i + j)
					}
					_ = nd.Ingress().Submit(payload, pri) // ErrShed is the point
				}
			}
		}()
	}

	expect := n
	// stop silences one node completely: its run loop AND its post-run
	// pull service.
	stop := make(map[topology.Node]func(), n)
	var killCancel context.CancelFunc
	for v := 0; v < n; v++ {
		node := topology.Node(v)
		nd, err := stream.NewNode(nodeCfg(node, endpoints[node], false))
		if err != nil {
			return nil, fmt.Errorf("stream: node %d: %w", v, err)
		}
		nodeCtx, cancelRun := context.WithCancel(runCtx)
		nodeServeCtx, cancelServe := context.WithCancel(serveCtx)
		stop[node] = func() { cancelRun(); cancelServe() }
		victim := cfg.Kill != nil && cfg.Kill.Node == node
		if victim {
			killCancel = cancelRun
		}
		startLoad(nd)
		wg.Add(1)
		go func() {
			defer cancelRun()
			defer cancelServe()
			defer wg.Done()
			res, err := nd.Run(nodeCtx)
			results <- outcome{node: node, res: res, err: err}
			// Keep answering pulls and JOINs: a finished node may be a
			// straggler's only provider. The victim's first lifetime
			// must NOT serve — dead is dead; its restart takes over.
			if !victim {
				nd.Serve(nodeServeCtx)
			}
		}()
	}

	// Schedule the plan's crashes: silence the node and kill its
	// endpoint so peers see real connection resets, not a polite exit.
	for v, at := range crashes {
		v, at := v, at
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-runCtx.Done():
				return
			case <-time.After(time.Until(epoch0.Add(at))):
			}
			stop[v]()
			endpoints[v].Close()
		}()
	}

	if cfg.Kill != nil {
		expect++ // the victim reports twice: pre-kill and post-rejoin
		ks := *cfg.Kill
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-runCtx.Done():
				results <- outcome{node: ks.Node, err: runCtx.Err()}
				return
			case <-time.After(time.Until(epoch0.Add(ks.At))):
			}
			killCancel() // zero-notice stop: no flush, no goodbye
			// A dead process's kernel discards everything addressed to
			// it; the loopback analogue is draining the inbox on the
			// floor for the whole downtime.
			ep := endpoints[ks.Node]
			downUntil := time.After(ks.Downtime)
		drain:
			for {
				select {
				case <-runCtx.Done():
					results <- outcome{node: ks.Node, err: runCtx.Err()}
					return
				case <-ep.Recv():
				case <-downUntil:
					break drain
				}
			}
			// Restart: a fresh node with no protocol state — it must
			// JOIN its way back in and catch up.
			nd, err := stream.NewNode(nodeCfg(ks.Node, ep, true))
			if err != nil {
				results <- outcome{node: ks.Node, err: err}
				return
			}
			startLoad(nd)
			res, err := nd.Run(runCtx)
			results <- outcome{node: ks.Node, res: res, err: err}
			nd.Serve(serveCtx)
		}()
	}

	out := &StreamResult{
		Epoch0:  epoch0,
		Epochs:  cfg.Epochs,
		Gamma:   cfg.IHC.Gamma(),
		Kill:    cfg.Kill,
		PerNode: make(map[topology.Node][]stream.EpochResult),
		RunErrs: make(map[topology.Node]error),
	}
	for i := 0; i < expect; i++ {
		oc := <-results
		if _, crashed := crashes[oc.node]; crashed {
			out.Crashed = append(out.Crashed, oc.node)
			continue
		}
		if oc.res != nil {
			out.PerNode[oc.node] = append(out.PerNode[oc.node], oc.res.Epochs...)
			out.NaksSent += oc.res.NaksSent
		}
		killedInstance := cfg.Kill != nil && cfg.Kill.Node == oc.node
		// The victim's first lifetime ends in context.Canceled by
		// design; only unexpected errors count.
		if oc.err != nil && !(killedInstance && oc.err == context.Canceled) {
			out.RunErrs[oc.node] = oc.err
		}
	}
	stopServing()
	cancelAll()
	wg.Wait()
	sort.Slice(out.Crashed, func(i, j int) bool { return out.Crashed[i] < out.Crashed[j] })
	for v := range out.PerNode {
		sort.Slice(out.PerNode[v], func(i, j int) bool { return out.PerNode[v][i].Epoch < out.PerNode[v][j].Epoch })
	}
	out.Snapshot = cfg.Gauges.Snapshot()
	return out, nil
}

// openEndpoints attaches every node to the mesh cfg selects, behind the
// chaos plan when one is given. TCP pre-binds every listener so the
// address book (and the proxy mesh in front of it) exists before any
// node starts. release closes everything, newest first.
func openEndpoints(cfg Config, plan *chaos.Plan, epoch0 time.Time) (map[topology.Node]transport.Endpoint, func(), error) {
	g := cfg.IHC.Graph()
	n := g.N()
	endpoints := make(map[topology.Node]transport.Endpoint, n)
	var closers []func()
	release := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (map[topology.Node]transport.Endpoint, func(), error) {
		release()
		return nil, nil, err
	}

	if !cfg.TCP {
		lbCfg := transport.LoopbackConfig{Graph: g, Latency: cfg.HopLatency, Epoch: epoch0}
		if plan != nil {
			lbCfg.Filter = plan
		}
		lb, err := transport.NewLoopback(lbCfg)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { lb.Close() })
		for v := 0; v < n; v++ {
			ep, err := lb.Endpoint(topology.Node(v))
			if err != nil {
				return fail(err)
			}
			endpoints[topology.Node(v)] = ep
		}
		return endpoints, release, nil
	}

	listeners := make(map[topology.Node]net.Listener, n)
	realAddrs := make(map[topology.Node]string, n)
	for v := 0; v < n; v++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("cluster: bind node %d: %w", v, err))
		}
		closers = append(closers, func() { ln.Close() })
		listeners[topology.Node(v)] = ln
		realAddrs[topology.Node(v)] = ln.Addr().String()
	}
	peerAddrs := func(v topology.Node) map[topology.Node]string {
		out := make(map[topology.Node]string)
		for _, nb := range g.Neighbors(v) {
			out[nb] = realAddrs[nb]
		}
		return out
	}
	if plan != nil {
		pm, err := chaos.NewProxyMesh(plan, realAddrs)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { pm.Close() })
		peerAddrs = pm.Addrs
	}
	for v := 0; v < n; v++ {
		node := topology.Node(v)
		ep, err := transport.NewTCP(transport.TCPConfig{
			Self:     node,
			Graph:    g,
			Listener: listeners[node],
			Peers:    peerAddrs(node),
			Dial:     cfg.Retry,
			Breaker:  cfg.Breaker,
		})
		if err != nil {
			return fail(fmt.Errorf("cluster: node %d endpoint: %w", v, err))
		}
		endpoints[node] = ep
		closers = append(closers, func() { ep.Close() })
	}
	return endpoints, release, nil
}
