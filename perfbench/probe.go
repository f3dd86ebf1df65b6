package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"ihc/internal/campaign"
	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// The layer probes time every layer the per-layer metrics name, each
// on its own, on inputs that do not depend on the workload: every
// workload's traced run calls probeLayers, so that each one reports every
// per-layer metric. Only hamilton.decompose_ms and core.new_ms come from
// the workload's own set-up spans, and the trace.* metrics from its own
// traced and untraced passes. The probes' topologies are built without
// spans, so that they do not mix with the workload's set-up.
const (
	// probeDim is the hypercube the engine probes broadcast on: Q9,
	// 2,093,056 events per broadcast, about a tenth of a second.
	probeDim = 9
	// probeGrades is the number of seeded Q6 placements of t = bound
	// noisy links the structural grader grades on its own.
	probeGrades = 3000
)

// probeLayers sets every per-layer metric but the trace.* ones.
func probeLayers(r *run) error {
	for _, m := range []struct{ metric, span string }{
		{"hamilton.decompose_ms", "hamilton.Decompose"},
		{"core.new_ms", "core.New"},
	} {
		v, err := r.tr.medianMs(m.span, 0)
		if err != nil {
			return err
		}
		r.set(m.metric, "ms", v)
	}
	if err := probeEngine(r); err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	if err := probeGraders(r); err != nil {
		return fmt.Errorf("grader probe: %w", err)
	}
	if err := probeStream(r); err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	return nil
}

func hypercube(dim int) (*core.IHC, error) {
	return buildIHC(nil, 0, 0, func() (*topology.Graph, error) { return topology.Hypercube(dim) })
}

// probeEngine runs the Q9 broadcast with the copy accounting off (the
// base), with the ledger the ata-q11 workload keeps, with the O(N²)
// copy matrix, and with the observe metrics hook, three times each in
// turn so that drift on the host hits every variant alike, and reports
// each extra as nanoseconds per event over the base. It also times
// StagePackets for every stage over all cycles: the schedule the engine
// is handed.
func probeEngine(r *run) error {
	tr := r.tr
	x, err := hypercube(probeDim)
	if err != nil {
		return err
	}
	ledger := ataConfig()
	base := core.Config{Eta: ledger.Eta, Params: ledger.Params, SkipCopies: true}
	matrix := core.Config{Eta: ledger.Eta, Params: ledger.Params}
	events := int64(x.Gamma()) * int64(x.N()) * int64(x.N()-1)
	from := len(tr.spans)
	variants := []struct {
		name string
		cfg  func() core.Config
		ns   []float64
	}{
		{name: "accounting-off", cfg: func() core.Config { return base }},
		{name: "ledger", cfg: func() core.Config { return ledger }},
		{name: "copy-matrix", cfg: func() core.Config { return matrix }},
		{name: "observe-metrics", cfg: func() core.Config {
			c := base
			c.Observe = observe.NewMetrics()
			return c
		}},
	}
	for round := 0; round < 3; round++ {
		for i := range variants {
			v := &variants[i]
			cfg := v.cfg()
			var err error
			gcPaused(func() {
				op := tr.op()
				root := tr.begin("engine/"+v.name, 0, op)
				defer tr.end(root)
				s := tr.begin("core.IHC.Run", root, op)
				t0 := time.Now()
				var res *core.Result
				res, err = x.Run(cfg)
				d := time.Since(t0)
				tr.end(s)
				if err != nil {
					return
				}
				v.ns = append(v.ns, float64(d.Nanoseconds())/float64(events))
				checkBroadcast(r, x, cfg, res, root, op)
				if !cfg.SkipCopies {
					err := res.Copies.VerifyATA(x.Gamma())
					r.check(err == nil, "%s copy matrix: %v", x.Graph().Name(), err)
				}
			})
			if err != nil {
				return fmt.Errorf("%s broadcast: %w", v.name, err)
			}
		}
	}
	baseline := median(variants[0].ns)
	r.set("simnet.events", "count", float64(events))
	r.set("simnet.ns_per_event", "ns", baseline)
	r.set("simnet.ledger_ns_per_event", "ns", median(variants[1].ns)-baseline)
	r.set("simnet.matrix_ns_per_event", "ns", median(variants[2].ns)-baseline)
	r.set("observe.metrics_hook_ns_per_event", "ns", median(variants[3].ns)-baseline)
	v, err := tr.medianMs("simnet.CopyLedger.VerifyATA", from)
	if err != nil {
		return err
	}
	r.set("simnet.ledger_verify_ms", "ms", v)

	cycles := make([]int, x.Gamma())
	for j := range cycles {
		cycles[j] = j
	}
	for i := 0; i < 5; i++ {
		op := tr.op()
		root := tr.begin("core.stage_packets", 0, op)
		for stage := 0; stage < ledger.Eta; stage++ {
			s := tr.begin("core.IHC.StagePackets", root, op)
			_, err := x.StagePackets(cycles, stage, ledger.Eta, 0, nil)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("StagePackets: %w", err)
			}
		}
		tr.end(root)
	}
	v, err = tr.medianMs("core.stage_packets", from)
	if err != nil {
		return err
	}
	r.set("core.stage_packets_ms", "ms", v)
	return nil
}

// probeGraders times the campaign's structural grader alone (seeded Q6
// placements of t = bound noisy links, live cross-check off), the
// reference graders, the repaired grader, the plan compiler and the
// repair manager.
func probeGraders(r *run) error {
	tr := r.tr
	from := len(tr.spans)
	q6, err := hypercube(6)
	if err != nil {
		return err
	}
	sq4, err := buildIHC(nil, 0, 0, func() (*topology.Graph, error) { return topology.SquareTorus(4) })
	if err != nil {
		return err
	}

	op := tr.op()
	s := tr.begin("campaign.RunPoint/no-cross-check", 0, op)
	t0 := time.Now()
	rep, err := campaign.RunPoint(campaign.Point{
		X: q6, Domain: campaign.DomainLinks, Kind: fault.Corrupt, T: frontierBound, Seed: r.seed,
	}, campaign.Search{Samples: probeGrades})
	d := time.Since(t0)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("Q6 grader: %w", err)
	}
	r.check(rep.Placements == probeGrades && rep.Violations == 0,
		"Q6 t=%d grader probe: %d violations over %d placements, want 0 over %d", frontierBound, rep.Violations, rep.Placements, probeGrades)
	r.set("campaign.grade_us_per_placement", "us", d.Seconds()*1e6/float64(rep.Placements))

	// The reference graders on a random Q6 placement of bound+1 noisy
	// links, the size at which placements start to break.
	rng := rand.New(rand.NewSource(r.seed))
	edges := q6.Graph().Edges()
	plan := fault.NewPlan(r.seed)
	for _, i := range rng.Perm(len(edges))[:frontierBound+1] {
		plan.Noisy[edges[i]] = true
	}
	var ihcOut reliable.Outcome
	for i := 0; i < 5; i++ {
		op := tr.op()
		s := tr.begin("reliable.EvaluateIHC", 0, op)
		ihcOut, err = reliable.EvaluateIHC(q6, plan, false, nil)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("EvaluateIHC: %w", err)
		}
	}
	for i := 0; i < 3; i++ {
		op := tr.op()
		s := tr.begin("reliable.EvaluateTimed", 0, op)
		out, err := reliable.EvaluateTimed(q6, fault.FromStatic(plan), false, nil, core.Config{})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("EvaluateTimed: %w", err)
		}
		r.check(out == ihcOut, "EvaluateTimed %+v disagrees with EvaluateIHC %+v on a static plan", out, ihcOut)
	}

	// The repaired grader, the plan compiler and the repair manager on
	// connected SQ4 placements of γ+1 dead links.
	var naks, retrans, recovered int64
	plans := repairedPlans(sq4.Graph(), sq4.Gamma()+1, 8, rng)
	for _, tp := range plans {
		op := tr.op()
		root := tr.begin("repaired-placement", 0, op)
		s := tr.begin("reliable.EvaluateRepaired", root, op)
		out, err := reliable.EvaluateRepaired(sq4, tp, false, nil, core.Config{}, repair.Config{})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("EvaluateRepaired: %w", err)
		}
		r.check(out.Wrong == 0 && out.Missing == 0, "repaired SQ4 placement %+v: %d wrong, %d missing", tp.Links, out.Wrong, out.Missing)
		naks += int64(out.Stats.Naks)
		retrans += int64(out.Stats.Retransmissions)
		recovered += int64(out.Stats.Recovered)
		for i := 0; i < 20; i++ {
			s = tr.begin("fault.TemporalPlan.Compile", root, op)
			_, err = tp.Compile(sq4.Graph())
			tr.end(s)
			if err != nil {
				return fmt.Errorf("compile: %w", err)
			}
		}
		tr.end(root)
	}
	r.set("repair.naks_per_placement", "count", float64(naks)/float64(len(plans)))
	r.set("repair.retransmissions_per_placement", "count", float64(retrans)/float64(len(plans)))
	if attempts := naks + retrans; attempts > 0 {
		r.set("repair.recovered_per_attempt", "ratio", float64(recovered)/float64(attempts))
	} else {
		r.check(false, "repaired SQ4 placements of γ+1 dead links needed no repair attempt")
	}

	for _, m := range []struct{ metric, span, unit string }{
		{"reliable.evaluate_ihc_ms", "reliable.EvaluateIHC", "ms"},
		{"reliable.evaluate_timed_ms", "reliable.EvaluateTimed", "ms"},
		{"reliable.evaluate_repaired_ms", "reliable.EvaluateRepaired", "ms"},
		{"fault.compile_us", "fault.TemporalPlan.Compile", "us"},
	} {
		v, err := tr.medianMs(m.span, from)
		if err != nil {
			return err
		}
		if m.unit == "us" {
			v *= 1e3
		}
		r.set(m.metric, m.unit, v)
	}
	return nil
}

// probeStream times what the stream workload does per payload and per
// batch, on one epoch batch as that workload builds it (one period's
// worth of one node's submissions) and on the workload's Q3 mesh.
func probeStream(r *run) error {
	x, err := hypercube(streamDim)
	if err != nil {
		return err
	}
	var items []stream.Item
	for i := 0; i < int(streamPeriod/loadInterval); i++ {
		data := make([]byte, loadBytes)
		for j := range data {
			data[j] = byte(i + j)
		}
		items = append(items, stream.Item{High: i%loadHighEvery == 0, Data: data})
	}
	batch, err := stream.EncodeBatch(items)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	back, err := stream.DecodeBatch(batch)
	if err != nil || len(back) != len(items) {
		return fmt.Errorf("batch round trip: %d of %d items, %v", len(back), len(items), err)
	}
	r.set("stream.batch_encode_ns", "ns", nsPer(r.tr, "stream.EncodeBatch", func() { _, _ = stream.EncodeBatch(items) }))
	r.set("stream.batch_decode_ns", "ns", nsPer(r.tr, "stream.DecodeBatch", func() { _, _ = stream.DecodeBatch(batch) }))
	r.set("stream.ingress_submit_ns", "ns", ingressSubmitNs(r.tr, items[0].Data))
	if err := setSignMetrics(r, x.N(), batch); err != nil {
		return err
	}
	if err := setFrameMetrics(r, x, batch); err != nil {
		return err
	}
	return setHopMetrics(r, x, batch)
}

// repairedPlans draws k placements of t permanently dead links that
// leave g connected, as the repaired campaign grades them.
func repairedPlans(g *topology.Graph, t, k int, rng *rand.Rand) []*fault.TemporalPlan {
	edges := g.Edges()
	var plans []*fault.TemporalPlan
	for len(plans) < k {
		pick := rng.Perm(len(edges))[:t]
		dead := map[int]bool{}
		for _, i := range pick {
			dead[i] = true
		}
		res := topology.New("residual", g.N())
		for i, e := range edges {
			if !dead[i] {
				res.AddEdge(e.U, e.V)
			}
		}
		if !res.Connected() {
			continue
		}
		tp := &fault.TemporalPlan{Seed: rng.Int63()}
		for _, i := range pick {
			tp.Links = append(tp.Links, fault.LinkFault{U: edges[i].U, V: edges[i].V, Until: fault.Forever})
		}
		plans = append(plans, tp)
	}
	return plans
}

// setSignMetrics times the keyring's MAC sign and verify on payload.
func setSignMetrics(r *run, n int, payload []byte) error {
	kr := reliable.NewKeyring(n, r.seed)
	msg := reliable.Message{Source: 1, Payload: payload}
	signed, err := kr.Sign(msg)
	if err != nil {
		return fmt.Errorf("sign: %w", err)
	}
	if ok, err := kr.Verify(signed); err != nil || !ok {
		return fmt.Errorf("verify of a freshly signed message: ok=%v err=%v", ok, err)
	}
	r.set("reliable.sign_ns", "ns", nsPer(r.tr, "reliable.Keyring.Sign", func() { _, _ = kr.Sign(msg) }))
	r.set("reliable.verify_ns", "ns", nsPer(r.tr, "reliable.Keyring.Verify", func() { _, _ = kr.Verify(signed) }))
	return nil
}

// ingressSubmitNs times Submit into a queue with room for every call.
func ingressSubmitNs(tr *tracer, data []byte) float64 {
	const batch = 1000
	op := tr.op()
	var per []float64
	for b := 0; b < 5; b++ {
		in := stream.NewIngress(stream.IngressConfig{HighCap: batch, LowCap: batch}, nil)
		s := tr.begin("stream.Ingress.Submit", 0, op)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			_ = in.Submit(data, stream.Priority(i%2))
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
		tr.end(s)
	}
	return median(per)
}

// dataFrame is a DATA frame as the stream sends one: a full cycle
// route and one epoch batch.
func dataFrame(x *core.IHC, payload []byte) *transport.Frame {
	route := append([]topology.Node(nil), x.DirectedCycle(0)...)
	return &transport.Frame{
		Kind: transport.FrameData, From: route[0], Source: route[0], Epoch: 1,
		Route: route, Payload: payload,
	}
}

func setFrameMetrics(r *run, x *core.IHC, payload []byte) error {
	kr := reliable.NewKeyring(x.N(), streamKeySeed)
	f := dataFrame(x, payload)
	if err := transport.SignFrame(kr, f); err != nil {
		return fmt.Errorf("sign frame: %w", err)
	}
	body, err := transport.EncodeFrame(f)
	if err != nil {
		return fmt.Errorf("encode frame: %w", err)
	}
	back, err := transport.DecodeFrame(body)
	if err != nil {
		return fmt.Errorf("decode frame: %w", err)
	}
	if ok, err := transport.VerifyFrame(kr, back); err != nil || !ok {
		return fmt.Errorf("verify of a round-tripped frame: ok=%v err=%v", ok, err)
	}
	r.set("transport.frame_encode_ns", "ns", nsPer(r.tr, "transport.EncodeFrame", func() { _, _ = transport.EncodeFrame(f) }))
	r.set("transport.frame_decode_ns", "ns", nsPer(r.tr, "transport.DecodeFrame", func() { _, _ = transport.DecodeFrame(body) }))
	r.set("transport.frame_sign_ns", "ns", nsPer(r.tr, "transport.SignFrame", func() { _ = transport.SignFrame(kr, f) }))
	r.set("transport.frame_verify_ns", "ns", nsPer(r.tr, "transport.VerifyFrame", func() { _, _ = transport.VerifyFrame(kr, back) }))
	return nil
}

// hopUs sends frames one at a time from the first node of the graph
// to a neighbour and returns the median microseconds until each one is
// received.
func hopUs(tr *tracer, name string, from, to transport.Endpoint, f *transport.Frame, hops int) (float64, error) {
	op := tr.op()
	var per []float64
	for i := 0; i < hops; i++ {
		s := tr.begin(name, 0, op)
		t0 := time.Now()
		if err := from.Send(to.Self(), f); err != nil {
			return 0, err
		}
		select {
		case <-to.Recv():
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("hop %d→%d not received within 5s", from.Self(), to.Self())
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(s)
	}
	return median(per), nil
}

// setHopMetrics measures one hop over the workload's loopback mesh and
// over one 127.0.0.1 TCP connection pair.
func setHopMetrics(r *run, x *core.IHC, payload []byte) error {
	g := x.Graph()
	f := dataFrame(x, payload)
	a, b := topology.Node(0), g.Neighbors(0)[0]
	lb, err := transport.NewLoopback(transport.LoopbackConfig{Graph: g, Latency: streamHop})
	if err != nil {
		return err
	}
	defer lb.Close()
	ea, err := lb.Endpoint(a)
	if err != nil {
		return err
	}
	eb, err := lb.Endpoint(b)
	if err != nil {
		return err
	}
	us, err := hopUs(r.tr, "transport.Loopback.Send", ea, eb, f, 200)
	if err != nil {
		return fmt.Errorf("loopback hop: %w", err)
	}
	r.set("transport.loopback_hop_us", "us", us)

	// A two-node graph, so that each side has exactly one peer address
	// and a single connection carries the frames.
	pair := topology.New("pair", 2)
	pair.AddEdge(0, 1)
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lb2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		la.Close()
		return err
	}
	ta, err := transport.NewTCP(transport.TCPConfig{Self: 0, Graph: pair, Listener: la,
		Peers: map[topology.Node]string{1: lb2.Addr().String()}})
	if err != nil {
		la.Close()
		lb2.Close()
		return err
	}
	defer ta.Close()
	tb, err := transport.NewTCP(transport.TCPConfig{Self: 1, Graph: pair, Listener: lb2,
		Peers: map[topology.Node]string{0: la.Addr().String()}})
	if err != nil {
		lb2.Close()
		return err
	}
	defer tb.Close()
	us, err = hopUs(r.tr, "transport.TCPNode.Send", ta, tb, f, 200)
	if err != nil {
		return fmt.Errorf("tcp hop: %w", err)
	}
	r.set("transport.tcp_hop_us", "us", us)
	return nil
}
