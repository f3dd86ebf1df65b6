package simnet

import (
	"reflect"
	"testing"

	"ihc/internal/topology"
)

// lineGraph builds a path 0–1–…–(n-1).
func lineGraph(n int) *topology.Graph {
	g := topology.New("line", n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(topology.Node(i), topology.Node(i+1))
	}
	return g
}

// recController records every callback and optionally injects a packet
// when a designated timer token fires.
type recController struct {
	rt         *Runtime
	attached   int
	specsSeen  int
	delivers   []Delivery
	timers     []Time
	tokens     []int64
	injectOn   int64 // token that triggers injectSpec (0 = never)
	injectSpec PacketSpec
	injectIdx  int32
	injectErr  error
}

func (c *recController) Attach(rt *Runtime, specs []PacketSpec) {
	c.rt = rt
	c.attached++
	c.specsSeen = len(specs)
}

func (c *recController) OnDeliver(pkt int32, node topology.Node, at Time) {
	c.delivers = append(c.delivers, Delivery{ID: c.rt.Spec(pkt).ID, Node: node, At: at})
}

func (c *recController) OnTimer(at Time, token int64) {
	c.timers = append(c.timers, at)
	c.tokens = append(c.tokens, token)
	if c.injectOn != 0 && token == c.injectOn {
		c.injectIdx, c.injectErr = c.rt.Inject(c.injectSpec)
	}
}

func TestControllerTimerOrderingAndClamp(t *testing.T) {
	g := lineGraph(3)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	net, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &recController{}
	spec := PacketSpec{
		ID:     PacketID{Source: 0, Channel: 0, Seq: 0},
		Route:  []topology.Node{0, 1, 2},
		Inject: 0, Tee: true,
	}
	// Timers at 1 (future), 0 (boundary), and one set from OnTimer in the
	// past, which must clamp to the firing time instead of time-traveling.
	wrap := &timerSetter{inner: ctl, at: []Time{1, 0}, tokens: []int64{2, 1}, pastToken: 3}
	res, err := net.Run([]PacketSpec{spec}, Options{Control: wrap, RecordDeliveries: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.attached != 1 || ctl.specsSeen != 1 {
		t.Fatalf("attach=%d specs=%d, want 1/1", ctl.attached, ctl.specsSeen)
	}
	// Tokens arrive in (time, seq) order: 1 at t=0, then the past timer
	// (set while handling token 1) clamped to t=0, then 2 at t=1.
	wantTokens := []int64{1, 3, 2}
	if len(ctl.tokens) != 3 {
		t.Fatalf("got %d timer firings (%v), want 3", len(ctl.tokens), ctl.tokens)
	}
	for i, w := range wantTokens {
		if ctl.tokens[i] != w {
			t.Fatalf("timer order %v, want %v", ctl.tokens, wantTokens)
		}
	}
	if ctl.timers[1] != 0 {
		t.Fatalf("past timer fired at %d, want clamped to 0", ctl.timers[1])
	}
	// Deliveries observed by the controller match the recorded log.
	if len(ctl.delivers) != len(res.Deliveriesv) {
		t.Fatalf("controller saw %d deliveries, engine recorded %d", len(ctl.delivers), len(res.Deliveriesv))
	}
	for i := range ctl.delivers {
		if ctl.delivers[i] != res.Deliveriesv[i] {
			t.Fatalf("delivery %d: controller %+v vs engine %+v", i, ctl.delivers[i], res.Deliveriesv[i])
		}
	}
}

// timerSetter decorates a recController: sets its timers during Attach,
// and from the first OnTimer sets one timer in the past to exercise the
// clamp.
type timerSetter struct {
	inner     *recController
	at        []Time
	tokens    []int64
	pastToken int64
	setPast   bool
}

func (w *timerSetter) Attach(rt *Runtime, specs []PacketSpec) {
	w.inner.Attach(rt, specs)
	for i, at := range w.at {
		rt.SetTimer(at, w.tokens[i])
	}
}
func (w *timerSetter) OnDeliver(pkt int32, node topology.Node, at Time) {
	w.inner.OnDeliver(pkt, node, at)
}
func (w *timerSetter) OnTimer(at Time, token int64) {
	w.inner.OnTimer(at, token)
	if !w.setPast {
		w.setPast = true
		w.inner.rt.SetTimer(at-1000, w.pastToken)
	}
}

func TestRuntimeInjectMidRun(t *testing.T) {
	g := lineGraph(4)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	net, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &recController{
		injectOn: 7,
		injectSpec: PacketSpec{
			ID:    PacketID{Source: 1, Channel: 1, Seq: 5},
			Route: []topology.Node{1, 2, 3},
			Tee:   true,
		},
	}
	wrap := &timerSetter{inner: ctl, at: []Time{500}, tokens: []int64{7}, pastToken: 9}
	spec := PacketSpec{
		ID:    PacketID{Source: 0, Channel: 0, Seq: 0},
		Route: []topology.Node{0, 1},
	}
	res, err := net.Run([]PacketSpec{spec}, Options{Control: wrap, RecordDeliveries: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.injectErr != nil {
		t.Fatalf("inject: %v", ctl.injectErr)
	}
	if ctl.injectIdx != 1 {
		t.Fatalf("injected index %d, want 1", ctl.injectIdx)
	}
	// The injected packet's inject time clamps to the timer firing time,
	// and both its tee copy (node 2) and final copy (node 3) deliver.
	got := map[topology.Node]Time{}
	for _, d := range res.Deliveriesv {
		if d.ID.Seq == 5 {
			got[d.Node] = d.At
		}
	}
	if len(got) != 2 {
		t.Fatalf("injected packet delivered at %v, want nodes 2 and 3", got)
	}
	// Inject at 500 (clamped), startup 100 → depart 600, tail at node 2
	// at 640; the header cuts through at 600+α=620, tail at node 3 at 660.
	if got[2] != 640 {
		t.Errorf("node 2 copy at %d, want 640", got[2])
	}
	if got[3] != 660 {
		t.Errorf("node 3 copy at %d, want 660", got[3])
	}
	if res.Injections != 2 {
		t.Errorf("Injections = %d, want 2", res.Injections)
	}
}

func TestRuntimeInjectRejectsBadRoutes(t *testing.T) {
	g := lineGraph(3)
	net, err := New(g, Params{}.Defaulted())
	if err != nil {
		t.Fatal(err)
	}
	bad := []PacketSpec{
		{ID: PacketID{Seq: 1}, Route: []topology.Node{0}},                     // too short
		{ID: PacketID{Seq: 2}, Route: []topology.Node{0, 2}},                  // not an edge
		{ID: PacketID{Seq: 3}, Route: []topology.Node{0, 1, 0, 1}},            // duplicate directed link
		{ID: PacketID{Seq: 4}, Route: []topology.Node{0, 1}, After: []int{0}}, // dependencies unsupported
	}
	inj := &badInjector{specs: bad}
	spec := PacketSpec{ID: PacketID{}, Route: []topology.Node{0, 1}}
	if _, err := net.Run([]PacketSpec{spec}, Options{Control: inj}); err != nil {
		t.Fatal(err)
	}
	if len(inj.errs) != len(bad) {
		t.Fatalf("got %d inject results, want %d", len(inj.errs), len(bad))
	}
	for i, e := range inj.errs {
		if e == nil {
			t.Errorf("bad spec %d (Seq %d) was accepted", i, bad[i].ID.Seq)
		}
	}
	// A valid injection after the rejected ones still works (the arc
	// buffer rolled back cleanly).
	if inj.okErr != nil {
		t.Fatalf("valid inject after rejects: %v", inj.okErr)
	}
}

type badInjector struct {
	rt    *Runtime
	specs []PacketSpec
	errs  []error
	okErr error
}

func (b *badInjector) Attach(rt *Runtime, specs []PacketSpec) {
	b.rt = rt
	rt.SetTimer(0, 1)
}
func (b *badInjector) OnDeliver(pkt int32, node topology.Node, at Time) {}
func (b *badInjector) OnTimer(at Time, token int64) {
	if token != 1 {
		return
	}
	for _, s := range b.specs {
		_, err := b.rt.Inject(s)
		b.errs = append(b.errs, err)
	}
	_, b.okErr = b.rt.Inject(PacketSpec{ID: PacketID{Seq: 99}, Route: []topology.Node{1, 2}})
}

// TestControllerNoOpIdentical: attaching a controller that only watches
// (no injections) leaves the delivery stream byte-identical.
func TestControllerNoOpIdentical(t *testing.T) {
	g := topology.MustSquareTorus(4)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: 0.3, Seed: 42}
	specs := func(net *Network) []PacketSpec {
		var out []PacketSpec
		// Every node sends a packet two hops to the right along its row.
		for u := 0; u < 16; u++ {
			r := u / 4 * 4
			out = append(out, PacketSpec{
				ID:    PacketID{Source: topology.Node(u), Seq: 0},
				Route: []topology.Node{topology.Node(u), topology.Node(r + (u+1)%4), topology.Node(r + (u+2)%4)},
				Tee:   true,
			})
		}
		return out
	}
	net1, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := net1.Run(specs(net1), Options{RecordDeliveries: true})
	if err != nil {
		t.Fatal(err)
	}
	net2, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	ctl := &recController{}
	watched, err := net2.Run(specs(net2), Options{RecordDeliveries: true, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Deliveriesv) != len(watched.Deliveriesv) {
		t.Fatalf("delivery counts differ: %d vs %d", len(base.Deliveriesv), len(watched.Deliveriesv))
	}
	for i := range base.Deliveriesv {
		if base.Deliveriesv[i] != watched.Deliveriesv[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, base.Deliveriesv[i], watched.Deliveriesv[i])
		}
	}
	if base.Finish != watched.Finish {
		t.Fatalf("finish differs: %d vs %d", base.Finish, watched.Finish)
	}
}

// watchOnly is a controller that never acts: attaching it switches the
// run from the calendar drain to the pure-heap controller loop and
// changes nothing else.
type watchOnly struct{}

func (watchOnly) Attach(*Runtime, []PacketSpec)        {}
func (watchOnly) OnDeliver(int32, topology.Node, Time) {}
func (watchOnly) OnTimer(Time, int64)                  {}

// streamObserver records the observer stream in arrival order.
type streamObserver struct {
	hops []HopEvent
	dels []Delivery
	log  []byte // 'h' per hop, 'd' per delivery
}

func (o *streamObserver) OnHop(e HopEvent) { o.hops = append(o.hops, e); o.log = append(o.log, 'h') }
func (o *streamObserver) OnDeliver(d Delivery) {
	o.dels = append(o.dels, d)
	o.log = append(o.log, 'd')
}

// pureFault drops or taints hops as a pure function of its arguments,
// the shape of internal/fault's compiled Injector.
type pureFault struct{}

func (pureFault) Relay(id PacketID, hop int, from, to topology.Node, depart Time) FaultAction {
	switch (uint64(id.Source)*2654435761 + uint64(hop)*97 + uint64(from)*13) % 11 {
	case 0:
		return FaultDrop
	case 1, 2:
		return FaultCorrupt
	default:
		return FaultNone
	}
}

// TestCalendarMatchesHeapMode runs each workload twice — through the
// calendar queue's tick-batched drain, and with a watch-only controller
// that puts the queue in heap mode — and requires every output channel
// to match: counters, the ordered delivery log, per-packet traces, the
// copy matrix, and the observer stream with its hop/delivery
// interleaving. The workloads cover all switching modes, same-tick
// contention ties, background traffic, saturation, per-packet flit
// counts, dependency chains and a fault hook.
func TestCalendarMatchesHeapMode(t *testing.T) {
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	ringG, ringSpecs := pipelineSpecs(32)

	// Contended: every packet circles a short ring, at τ_S = 0 and μ = 1
	// so the blocked-cut-through fallback lands on its evCut's tick.
	cycle6 := topology.MustCycle(6)
	ring6 := make([]topology.Node, 12)
	for i := range ring6 {
		ring6[i] = topology.Node(i % 6)
	}
	var contended []PacketSpec
	for s := 0; s < 6; s++ {
		contended = append(contended, PacketSpec{ID: PacketID{Source: topology.Node(s)}, Route: ring6[s : s+6], Tee: true})
	}

	flits := append([]PacketSpec(nil), ringSpecs...)
	for i := range flits {
		flits[i].Flits = 1 + i%3
	}

	route12 := func(from, n int) []topology.Node {
		r := make([]topology.Node, n)
		for i := range r {
			r[i] = topology.Node((from + i) % 12)
		}
		return r
	}
	deps := []PacketSpec{
		{ID: PacketID{Source: 0}, Route: route12(0, 4), Tee: true},
		{ID: PacketID{Source: 3, Seq: 1}, Route: route12(3, 4), Tee: true, After: []int{0}, Inject: 10},
		{ID: PacketID{Source: 6, Seq: 2}, Route: route12(6, 4), Tee: true, After: []int{1}},
		{ID: PacketID{Source: 3, Channel: 1}, Route: route12(3, 7), Tee: true, After: []int{0}},
		{ID: PacketID{Source: 9, Seq: 3}, Route: route12(9, 4), Tee: true, After: []int{2, 3}},
	}

	withMode := func(m Mode) Params { q := p; q.Mode = m; return q }
	cases := []struct {
		name  string
		g     *topology.Graph
		p     Params
		specs []PacketSpec
		opts  Options
	}{
		{"virtual-cut-through", ringG, withMode(VirtualCutThrough), ringSpecs, Options{Copies: true}},
		{"store-and-forward", ringG, withMode(StoreAndForward), ringSpecs, Options{Copies: true}},
		{"wormhole", ringG, withMode(Wormhole), ringSpecs, Options{Copies: true}},
		{"contended", cycle6, Params{TauS: 0, Alpha: 20, Mu: 1, D: 37}, contended, Options{Copies: true}},
		{"background", ringG, Params{TauS: 100, Alpha: 20, Mu: 2, D: 37, Rho: 0.35, Seed: 12345}, ringSpecs, Options{}},
		{"saturated", ringG, p, ringSpecs, Options{Saturated: true}},
		{"flits", ringG, p, flits, Options{}},
		{"deps", topology.MustCycle(12), p, deps, Options{Copies: true}},
		{"faults", ringG, p, ringSpecs, Options{Fault: pureFault{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(ctl Controller) (*Result, *streamObserver) {
				obs := &streamObserver{}
				opts := tc.opts
				opts.RecordDeliveries, opts.Trace, opts.Observe, opts.Control = true, true, obs, ctl
				return mustRun(t, tc.g, tc.p, tc.specs, opts), obs
			}
			cal, calObs := run(nil)
			heap, heapObs := run(watchOnly{})
			if cal.Deliveries == 0 {
				t.Fatal("workload delivered nothing; comparison vacuous")
			}
			if keyOf(cal) != keyOf(heap) || cal.FaultDrops != heap.FaultDrops || cal.FaultTaints != heap.FaultTaints {
				t.Errorf("counters differ:\ncalendar %+v drops %d taints %d\n    heap %+v drops %d taints %d",
					keyOf(cal), cal.FaultDrops, cal.FaultTaints, keyOf(heap), heap.FaultDrops, heap.FaultTaints)
			}
			if !reflect.DeepEqual(cal.Deliveriesv, heap.Deliveriesv) {
				t.Error("delivery log differs")
			}
			if !reflect.DeepEqual(cal.Traces, heap.Traces) {
				t.Error("traces differ")
			}
			if !reflect.DeepEqual(cal.Copies, heap.Copies) {
				t.Error("copy matrix differs")
			}
			if string(calObs.log) != string(heapObs.log) || !reflect.DeepEqual(calObs.hops, heapObs.hops) ||
				!reflect.DeepEqual(calObs.dels, heapObs.dels) {
				t.Error("observer stream differs")
			}
		})
	}
}
