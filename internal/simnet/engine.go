package simnet

import (
	"fmt"

	"ihc/internal/topology"
)

// The event engine. Each packet is driven by two kinds of events:
//
//   - evCut: the packet's header has reached an intermediate node and,
//     after the FIFO transit time α, requests the outgoing transmitter
//     hoping to cut through;
//   - evSend: the packet is fully stored at a node (or is being injected
//     by its source) and, after the startup time τ_S, requests the
//     transmitter for a store-and-forward style send.
//
// A request that finds the transmitter free acquires it immediately; a
// blocked cut-through falls back to reception + evSend; a blocked send
// reserves the next free slot and pays the queueing delay D. Wormhole
// packets stall in the network instead of buffering. Events are processed
// in (time, key) order — see packetKey — so runs are fully deterministic.
//
// The hot path is flat and index-addressed: before the event loop starts,
// every route is compiled into a []int32 of arc indices (validating
// adjacency once), so handle() reaches its link by slice indexing into
// the network's dense []link — no map probes, no interface boxing, and,
// with a reused Scratch, no allocation per event.

type evKind uint8

const (
	evCut evKind = iota
	evSend
	// evTimer is a controller wake-up: it carries no packet, only an
	// opaque token (stashed in the event's arr field), and exists only
	// when Options.Control is attached. Timer events share the (time,
	// key) total order with packet events, so an attached controller
	// never perturbs the relative order of the packet events themselves.
	evTimer
)

// Capacity limits of the flat-array layout. Packet indices are int32 and
// an event's ordering key reserves 31 bits for the packet and 30 for the
// hop, so both are hard caps the run validates up front — at the paper's
// Q16 headline scale (524288 packets of 65535 hops per stage) they leave
// three orders of magnitude of headroom, but a silent wrap would corrupt
// the event order, so exceeding them is a loud error.
const (
	maxSpecs    = 1<<31 - 1
	maxRouteLen = 1 << 30
)

// packetKey is the deterministic tiebreak for packet events at equal
// simulated time: spec index, then hop, then kind (evCut orders before
// evSend). Together with the time it forms a total order over all
// possible packet events that is a pure function of the event *set* —
// not of heap push order — so every conforming queue (the calendar
// queue, the reference heap, controller-mode heap) pops the identical
// sequence. Two properties make the order well defined and causal:
//
//   - distinct events have distinct keys: each (pkt, hop) produces at
//     most one evCut and at most one evSend per run;
//   - every event spawned while handling an event at (t, k) lands at a
//     strictly later (time, key): next-hop and dependency-release events
//     advance time by at least α, and the blocked-cut-through fallback
//     (the only spawn that can share its spawner's time, at μ=1, τ_S=0)
//     keeps the same pkt and hop but moves from evCut to evSend.
func packetKey(pkt, hop int32, kind evKind) uint64 {
	return uint64(uint32(pkt))<<32 | uint64(uint32(hop))<<2 | uint64(kind)
}

// timerKeyBit marks controller timer keys: bit 63 is never set by
// packetKey (31+30+2 = 63 bits), so all timers at a tick order after
// that tick's packet events — a deadline timer can never preempt a
// delivery landing on the deadline itself — and among themselves by
// their monotonic set sequence.
const timerKeyBit = uint64(1) << 63

type event struct {
	t    Time
	key  uint64 // deterministic tiebreak at equal t (packetKey / timer key)
	pkt  int32
	hop  int32
	kind evKind
	arr  Time // header arrival time at the hop's source node
}

// before reports whether a orders strictly before b: primary key is
// simulated time, tiebroken by the deterministic event key. The order is
// total (keys are unique), so every conforming priority queue pops the
// exact same event sequence — the determinism the regression oracle
// relies on.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

// eventHeap is a monomorphic 4-ary min-heap over a reusable backing
// array. Compared to container/heap it avoids the interface{} boxing
// (one heap allocation per pushed event) and the dynamic Less/Swap
// dispatch; the 4-ary layout halves the tree depth, so a pop touches
// fewer cache lines at the cost of cheap in-line sibling comparisons.
type eventHeap struct {
	a []event
}

func (h *eventHeap) push(e event) {
	a := append(h.a, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	h.a = a
}

func (h *eventHeap) pop() event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	h.a = a[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for k := c + 1; k < hi; k++ {
			if a[k].before(&a[m]) {
				m = k
			}
		}
		if !a[m].before(&last) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = last
	return top
}

// Options controls what a Run records beyond aggregate counters.
type Options struct {
	// Copies builds the (receiver, source) copy-count matrix. Costs
	// O(N^2) memory; leave off for very large networks.
	Copies bool
	// Trace records the per-hop trace of every packet.
	Trace bool
	// RecordDeliveries keeps an ordered log of every delivery.
	RecordDeliveries bool
	// Saturated models the heavy-traffic limiting regime of the paper's
	// worst-case analysis (Table IV): every hop is performed from
	// intermediate storage and pays the queueing delay D, regardless of
	// the actual transmitter state.
	Saturated bool
	// Fault, when non-nil, is consulted once per performed hop and may
	// drop the copy or taint its payload (see FaultHook). Nil costs one
	// predictable branch per event on the hot path.
	Fault FaultHook
	// Control, when non-nil, attaches an online controller (see
	// Controller): it observes deliveries, sets timers, and may inject
	// new packets mid-run — the machinery behind the repair layer. Nil
	// costs one predictable branch per event and one per delivery.
	Control Controller
	// Observe, when non-nil, streams every performed hop and every
	// delivery to an observability sink (see Observer and
	// internal/observe). Nil costs one predictable branch per event and
	// one per delivery, preserving the allocation-free hot path. Records
	// arrive in the engine's deterministic (time, key) order.
	Observe Observer
	// Ledger, when non-nil, accumulates every delivery into the O(N)
	// incremental Theorem-4 copy ledger (see CopyLedger) — the
	// counters-only replacement for the O(N²) Copies matrix at Q14+/Q16
	// scale. The engine only adds to it; callers may share one ledger
	// across chained runs (core does, per stage) and verify at the end.
	Ledger *CopyLedger
}

// runState is the working state of one Run. It lives inside a Scratch so
// that every slice — the event queue, the compiled routes, the
// dependency bookkeeping — keeps its backing array across runs.
type runState struct {
	net      *Network
	specs    []PacketSpec
	opts     Options
	queue    calQueue
	seq      int64 // monotonic timer sequence (controller runs only)
	res      *Result
	ledger   *CopyLedger // delivery sink when Options.Ledger is set
	arcStamp []int32     // per arc: spec index + 1 that last used it (duplicate detection)
	arcs     []int32     // backing store for routes compiled by this run
	specArcs [][]int32   // per spec: one arc index per hop (into arcs, or a caller-supplied CompiledPath)
	children [][]int32   // per spec: dependent spec indices
	unmet    [][]int32   // per spec: parents that have not yet delivered at Route[0]
	ready    []Time      // per spec: latest parent delivery at Route[0]
	started  []bool
	corrupt  []bool // per spec: payload tainted by the fault hook (hook runs only)
	hasDeps  bool   // any spec has an After list (gates the dependency path)

	// Controller support (populated only when opts.Control != nil):
	// ownSpecs is a scratch-owned copy of the caller's specs so that
	// Runtime.Inject can append without aliasing caller memory, and now
	// is the time of the event currently being processed, so injections
	// can be validated against causality.
	ownSpecs []PacketSpec
	now      Time
}

// release drops the pointers a finished run would otherwise pin in the
// scratch (the caller's specs and the returned Result), keeping only the
// reusable backing arrays.
func (st *runState) release() {
	st.net, st.specs, st.res = nil, nil, nil
	st.ledger = nil
	// Route windows may alias caller-owned CompiledPaths; drop every
	// reference (including tail entries from earlier, larger runs) so the
	// scratch never pins a caller's compiled routes between runs.
	clear(st.specArcs[:cap(st.specArcs)])
	if len(st.ownSpecs) > 0 {
		// Spec copies hold route slices owned by the caller (or the
		// controller); drop them so the scratch pins only its own arrays.
		clear(st.ownSpecs)
		st.ownSpecs = st.ownSpecs[:0]
	}
}

// Run simulates the given packets to completion and returns aggregate
// results, drawing working memory from a pooled Scratch. Link state
// (transmitter reservations, background-traffic phase) persists across
// calls on the same Network, so staged algorithms can chain Runs; use a
// fresh Network for independent experiments.
func (n *Network) Run(specs []PacketSpec, opts Options) (*Result, error) {
	return n.RunScratch(specs, opts, nil)
}

// RunScratch is Run with caller-owned working memory: all transient
// allocations of the event loop live in sc and are reused by the next
// run. A nil sc borrows scratch from an internal pool. A Scratch must
// never be used by two goroutines at once; results are identical with
// or without reuse.
func (n *Network) RunScratch(specs []PacketSpec, opts Options, sc *Scratch) (*Result, error) {
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	st := &sc.st
	defer st.release()
	if err := st.prepare(n, specs, opts); err != nil {
		return nil, err
	}
	for i, s := range specs {
		if len(s.After) > 0 {
			continue
		}
		// Source injection: startup τ_S, then request the first link.
		st.start(int32(i), s.Inject)
	}
	if opts.Control == nil {
		st.drain()
	} else {
		// Controller-attached loop: the specs are copied into scratch-owned
		// memory first so Runtime.Inject may append mid-run, and timer
		// events are dispatched to the controller instead of handle(). The
		// queue runs in heap mode here — controllers set same-tick timers
		// and inject packets whose keys are not successor-shaped, so the
		// calendar drain's ordering argument does not apply; the heap
		// reproduces the pre-calendar engine byte for byte.
		st.ownSpecs = append(st.ownSpecs[:0], specs...)
		st.specs = st.ownSpecs
		st.now = 0
		opts.Control.Attach(&Runtime{st: st}, st.specs)
		for st.queue.heapLen() > 0 {
			ev := st.queue.popHeap()
			st.res.Events++
			st.now = ev.t
			if ev.kind == evTimer {
				opts.Control.OnTimer(ev.t, int64(ev.arr))
				continue
			}
			st.handle(ev)
		}
	}
	return st.finish()
}

// drain is the tick-batched hot loop of controller-free runs: take one
// whole tick bucket as a key-sorted slice, handle it back to back in one
// tight loop — no per-event heap sifting — and consume each event's
// same-tick respawn (the blocked cut-through fallback, whose key is the
// immediate successor of its spawner's) right after the event that
// spawned it, exactly where the heap would have popped it.
func (st *runState) drain() {
	q := &st.queue
	for {
		t, ok := q.nextTick()
		if !ok {
			return
		}
		b := q.takeTick(t)
		st.res.Events += int64(len(b))
		st.now = t
		for i := range b {
			st.handle(b[i])
			for {
				ev, ok := q.takeSame()
				if !ok {
					break
				}
				st.res.Events++
				st.handle(ev)
			}
		}
		q.finishTick(t, b)
	}
}

// prepare initializes the run state: it validates and compiles every
// route, builds the dependency tables, and sizes the per-run recording
// structures.
func (st *runState) prepare(n *Network, specs []PacketSpec, opts Options) error {
	st.net, st.specs, st.opts = n, specs, opts
	st.res = &Result{}
	st.queue.reset(spanForParams(n.p), opts.Control != nil)
	st.seq = 0
	st.ledger = opts.Ledger
	if len(specs) > maxSpecs {
		return fmt.Errorf("simnet: %d packets exceed the engine's %d-packet capacity", len(specs), maxSpecs)
	}

	// Route compilation: one pass validates adjacency and duplicate
	// directed links, and emits each hop's arc index so the event loop
	// addresses links by slice indexing instead of hashing. arcStamp
	// detects a route traversing the same directed link twice (such a
	// packet would contend with itself and the schedule is malformed);
	// stamped with spec index + 1 so one cleared array serves every
	// spec. Routes that carry a CompiledPath skip both per-hop checks:
	// the path validated adjacency once at compilation, and the caller
	// certifies the window repeats no directed link (see
	// PacketSpec.Path) — that is what keeps a Q16-scale run's compiled
	// footprint at O(γN) instead of O(γN²).
	st.arcStamp = growInt32(st.arcStamp, len(n.links))
	clear(st.arcStamp)
	st.specArcs = growArcLists(st.specArcs, len(specs))
	plainHops := 0
	for i := range specs {
		if specs[i].Path == nil {
			plainHops += len(specs[i].Route) - 1
		}
	}
	// Reserve the whole backing store up front: appends below never
	// reallocate, so the specArcs windows handed out stay valid.
	if cap(st.arcs) < plainHops {
		st.arcs = make([]int32, 0, plainHops)
	} else {
		st.arcs = st.arcs[:0]
	}
	hasDeps := false
	for i, s := range specs {
		if len(s.Route) < 2 {
			return fmt.Errorf("simnet: packet %d (%v) has route of %d nodes", i, s.ID, len(s.Route))
		}
		if len(s.Route) >= maxRouteLen {
			return fmt.Errorf("simnet: packet %d (%v) route of %d nodes exceeds the engine's %d-hop capacity",
				i, s.ID, len(s.Route), maxRouteLen-1)
		}
		if s.Inject < 0 {
			return fmt.Errorf("simnet: packet %d (%v) has negative inject time", i, s.ID)
		}
		if p := s.Path; p != nil {
			arcs, err := p.window(n, s.PathOff, s.Route)
			if err != nil {
				return fmt.Errorf("simnet: packet %d (%v): %w", i, s.ID, err)
			}
			st.specArcs[i] = arcs
		} else {
			base := len(st.arcs)
			for h := 0; h+1 < len(s.Route); h++ {
				from, to := s.Route[h], s.Route[h+1]
				idx := n.arcIndex(from, to)
				if idx < 0 {
					return fmt.Errorf("simnet: packet %d (%v) route step %d: {%d,%d} not an edge of %s",
						i, s.ID, h, from, to, n.g.Name())
				}
				if st.arcStamp[idx] == int32(i)+1 {
					return fmt.Errorf("simnet: packet %d (%v) route uses directed link %d→%d twice",
						i, s.ID, from, to)
				}
				st.arcStamp[idx] = int32(i) + 1
				st.arcs = append(st.arcs, idx)
			}
			st.specArcs[i] = st.arcs[base:len(st.arcs):len(st.arcs)]
		}
		if len(s.After) > 0 {
			hasDeps = true
		}
	}

	st.children = resetLists(st.children, len(specs))
	st.unmet = resetLists(st.unmet, len(specs))
	st.ready = growTimes(st.ready, len(specs))
	clear(st.ready)
	st.started = growBools(st.started, len(specs))
	clear(st.started)
	if opts.Fault != nil {
		// Taint bits are grown and cleared only when a hook is installed;
		// fault-free runs never touch the slice.
		st.corrupt = growBools(st.corrupt, len(specs))
		clear(st.corrupt)
	}
	st.hasDeps = hasDeps
	if hasDeps {
		for i, s := range specs {
			for _, parent := range s.After {
				if parent < 0 || parent >= len(specs) || parent == i {
					return fmt.Errorf("simnet: packet %d (%v) has invalid dependency %d", i, s.ID, parent)
				}
				for _, q := range st.unmet[i] {
					if q == int32(parent) {
						return fmt.Errorf("simnet: packet %d (%v) lists dependency %d twice", i, s.ID, parent)
					}
				}
				st.unmet[i] = append(st.unmet[i], int32(parent))
				st.children[parent] = append(st.children[parent], int32(i))
			}
		}
		if err := checkAcyclic(specs); err != nil {
			return err
		}
	}
	if opts.Copies {
		st.res.Copies = NewCopyMatrix(n.g.N())
	}
	if opts.Trace {
		st.res.Traces = make(map[PacketID][]Hop, len(specs))
	}
	return nil
}

// finish verifies every packet was eventually injected and returns the
// run's Result.
func (st *runState) finish() (*Result, error) {
	for i := range st.specs {
		if !st.started[i] {
			return nil, fmt.Errorf("simnet: packet %d (%v) never injected: no parent delivered at node %d",
				i, st.specs[i].ID, st.specs[i].Route[0])
		}
	}
	return st.res, nil
}

// checkAcyclic rejects dependency cycles among the specs' After lists up
// front: a cyclic chain can never inject any of its packets, so the run
// would silently simulate everything else and only fail afterwards with a
// misleading "no parent delivered" error. Kahn's algorithm over the
// dependency arcs finds the offending packets and an example cycle.
func checkAcyclic(specs []PacketSpec) error {
	indeg := make([]int, len(specs))
	children := make([][]int, len(specs))
	for i, s := range specs {
		indeg[i] = len(s.After)
		for _, parent := range s.After {
			children[parent] = append(children[parent], i)
		}
	}
	queue := make([]int, 0, len(specs))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, c := range children[i] {
			if indeg[c]--; indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if done == len(specs) {
		return nil
	}
	// Walk unresolved dependencies from any stuck packet until a spec
	// repeats; the walk stays within the cyclic component, so it yields a
	// concrete example cycle for the error message.
	start := -1
	for i, d := range indeg {
		if d > 0 {
			start = i
			break
		}
	}
	path := []int{start}
	seen := map[int]int{start: 0}
	for {
		cur := path[len(path)-1]
		next := -1
		for _, parent := range specs[cur].After {
			if indeg[parent] > 0 {
				next = parent
				break
			}
		}
		if at, ok := seen[next]; ok {
			cycle := ""
			for _, i := range path[at:] {
				cycle += fmt.Sprintf("%d (%v) → ", i, specs[i].ID)
			}
			return fmt.Errorf("simnet: dependency cycle: %s%d (%v)", cycle, next, specs[next].ID)
		}
		seen[next] = len(path)
		path = append(path, next)
	}
}

// start injects packet i at absolute time at.
func (st *runState) start(i int32, at Time) {
	st.started[i] = true
	st.push(event{t: at + st.net.p.TauS, pkt: i, hop: 0, kind: evSend, arr: at})
	st.res.Injections++
}

// push enqueues a packet event under its deterministic key.
func (st *runState) push(ev event) {
	ev.key = packetKey(ev.pkt, ev.hop, ev.kind)
	st.queue.push(ev)
}

// pushTimer enqueues a controller timer. Timers order after all packet
// events at their tick and among themselves by set order.
func (st *runState) pushTimer(at Time, token int64) {
	st.queue.push(event{t: at, key: timerKeyBit | uint64(st.seq), kind: evTimer, arr: Time(token)})
	st.seq++
}

func (st *runState) handle(ev event) {
	spec := &st.specs[ev.pkt]
	p := st.net.p
	from := spec.Route[ev.hop]
	to := spec.Route[ev.hop+1]
	// Packet transmission time: Flits overrides the network default μ.
	pt := p.PacketTime()
	if spec.Flits > 0 {
		pt = Time(spec.Flits) * p.Alpha
	}
	arc := st.specArcs[ev.pkt][ev.hop]
	l := &st.net.links[arc]

	var depart Time
	var kind HopKind
	var blocked bool

	switch {
	case ev.kind == evCut && !st.opts.Saturated:
		// Header requests the transmitter at ev.t = arr + α.
		req := ev.t
		avail, bgHit := st.linkFree(l, req)
		if avail <= req && !bgHit {
			depart, kind = req, HopCut
			st.res.CutThroughs++
		} else {
			if l.freeAt > req {
				st.res.Contentions++
			}
			if bgHit {
				st.res.BgBlocked++
			}
			if p.Mode == Wormhole {
				// Stall in the network until the transmitter frees.
				depart, kind, blocked = max(req, avail)+p.D, HopStall, true
				st.res.Stalls++
			} else {
				// Virtual cut-through: buffer the packet and retry as a
				// store-and-forward send once fully received + started up.
				st.push(event{t: ev.arr + pt + p.TauS, pkt: ev.pkt, hop: ev.hop, kind: evSend, arr: ev.arr})
				return
			}
		}

	default: // evSend, or any request in Saturated mode
		ready := ev.t
		if ev.kind == evCut {
			// Saturated mode forces even would-be cut-throughs through
			// storage: full reception plus startup.
			ready = ev.arr + pt + p.TauS
		}
		avail, bgHit := st.linkFree(l, ready)
		switch {
		case st.opts.Saturated:
			depart, blocked = max(ready, avail)+p.D, true
		case avail <= ready && !bgHit:
			depart = ready
		default:
			if l.freeAt > ready {
				st.res.Contentions++
			}
			if bgHit {
				st.res.BgBlocked++
			}
			depart, blocked = max(ready, avail)+p.D, true
		}
		if ev.hop == 0 {
			kind = HopInject
		} else {
			kind = HopBuffer
			st.res.BufferedHops++
		}
	}

	// The fault hook sees the hop after its departure time is settled but
	// before the link is acquired: a dropped copy never occupies the
	// transmitter, schedules nothing downstream, and delivers nowhere.
	// (The hop-kind counters above record the switching decision that was
	// made; FaultDrops counts the hops canceled after that decision.)
	if st.opts.Fault != nil {
		switch st.opts.Fault.Relay(spec.ID, int(ev.hop), from, to, depart) {
		case FaultDrop:
			st.res.FaultDrops++
			return
		case FaultCorrupt:
			st.corrupt[ev.pkt] = true
			st.res.FaultTaints++
		}
	}

	// Acquire the link for [depart, depart+μα].
	l.freeAt = depart + pt
	l.busy += pt
	st.res.LinkBusy += pt

	tailAtNext := depart + pt
	last := int32(len(spec.Route) - 2)
	if st.opts.Trace {
		st.res.Traces[spec.ID] = append(st.res.Traces[spec.ID], Hop{
			From: from, To: to, Kind: kind,
			HeaderDepart: depart, TailArrive: tailAtNext, Blocked: blocked,
		})
	}
	if st.opts.Observe != nil {
		flits := p.Mu
		if spec.Flits > 0 {
			flits = spec.Flits
		}
		st.opts.Observe.OnHop(HopEvent{
			ID: spec.ID, Hop: int(ev.hop), From: from, To: to,
			Arc:  int(arc),
			Kind: kind, HeaderDepart: depart, TailArrive: tailAtNext,
			Flits: flits, Blocked: blocked,
		})
	}
	// The next node receives a copy if it is the final node, or by the
	// tee operation while the packet passes through.
	if ev.hop == last || spec.Tee {
		st.deliver(ev.pkt, to, tailAtNext)
	}
	if ev.hop < last {
		// Header arrives at `to` at depart; after the FIFO transit α it
		// requests the next transmitter (cut-through path), or goes
		// through storage in store-and-forward mode.
		if p.Mode == StoreAndForward {
			st.push(event{t: depart + pt + p.TauS, pkt: ev.pkt, hop: ev.hop + 1, kind: evSend, arr: depart})
		} else {
			st.push(event{t: depart + p.Alpha, pkt: ev.pkt, hop: ev.hop + 1, kind: evCut, arr: depart})
		}
	}
}

// linkFree returns the earliest time >= t the link is free of both
// broadcast and background traffic, and whether background traffic was
// occupying it at the query time.
func (st *runState) linkFree(l *link, t Time) (Time, bool) {
	avail := max(l.freeAt, t)
	if l.bg == nil {
		return avail, false
	}
	free, hit := l.bg.freeFrom(avail)
	return free, hit
}

func (st *runState) deliver(pkt int32, node topology.Node, at Time) {
	id := st.specs[pkt].ID
	st.res.Deliveries++
	if st.hasDeps && len(st.children[pkt]) > 0 {
		st.releaseDeps(pkt, node, at)
	}
	if at > st.res.Finish {
		st.res.Finish = at
	}
	if st.res.Copies != nil {
		st.res.Copies.Add(node, id.Source)
	}
	if st.ledger != nil {
		st.ledger.Add(node, id.Source)
	}
	if st.opts.RecordDeliveries || st.opts.Observe != nil {
		d := Delivery{
			ID: id, Node: node, At: at,
			Corrupted: st.opts.Fault != nil && st.corrupt[pkt],
		}
		if st.opts.RecordDeliveries {
			st.res.Deliveriesv = append(st.res.Deliveriesv, d)
		}
		if st.opts.Observe != nil {
			st.opts.Observe.OnDeliver(d)
		}
	}
	if st.opts.Control != nil {
		st.opts.Control.OnDeliver(pkt, node, at)
	}
}

// releaseDeps satisfies pkt's delivery at node for every dependent
// child, starting children whose last parent this was.
func (st *runState) releaseDeps(pkt int32, node topology.Node, at Time) {
	for _, c := range st.children[pkt] {
		child := &st.specs[c]
		if child.Route[0] != node {
			continue
		}
		// Each parent satisfies its dependency at most once, even if it
		// delivers several copies at the child's source (e.g. a tee route
		// revisiting the node): a second copy from one parent must not
		// release a child still waiting on a different parent.
		w := st.unmet[c]
		k := -1
		for idx, parent := range w {
			if parent == pkt {
				k = idx
				break
			}
		}
		if k < 0 {
			continue
		}
		w[k] = w[len(w)-1]
		st.unmet[c] = w[:len(w)-1]
		if at > st.ready[c] {
			st.ready[c] = at
		}
		if len(st.unmet[c]) == 0 {
			st.start(c, st.ready[c]+child.Inject)
		}
	}
}
