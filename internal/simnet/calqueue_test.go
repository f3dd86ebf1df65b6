package simnet

import (
	"math/rand"
	"testing"
)

// The calendar queue's contract is exactly the heap's: pop every pushed
// event in (t, key) order, including events pushed mid-drain. These
// tests run the two side by side on the same event sets — initial
// pushes in arbitrary order (with same-tick collisions and times far
// outside the ring window), plus respawns generated as a pure function
// of each popped event, so both sides make identical spawn decisions —
// and require identical pop sequences.

// spawnedBase separates spawned keys from initial keys: initial events
// get even keys below it (their same-tick respawns the odd immediate
// successors), spawned future events get even keys at or above it and
// never spawn further, bounding the cascade.
const spawnedBase = uint64(1) << 32

// diffSpawner returns a respawn function for one drain side: decisions
// are a pure function of (popped event, salt) so the heap and calendar
// sides agree, while nextKey is side-local — if the pop orders agree,
// the generated keys agree too, and if they diverge the comparison
// fails anyway.
func diffSpawner(salt uint64, nextKey *uint64) func(event) []event {
	return func(ev event) []event {
		if ev.key&1 == 1 || ev.key >= spawnedBase {
			return nil
		}
		h := splitmix64(uint64(ev.t)*1000003 ^ ev.key ^ salt)
		var out []event
		if h&7 == 0 {
			// Same-tick respawn with the immediate-successor key — the
			// shape of the engine's blocked-cut-through fallback.
			out = append(out, event{t: ev.t, key: ev.key + 1})
		}
		if h&0x300 == 0 {
			// Future respawn, up to thousands of ticks ahead: crosses
			// window boundaries and, for small spans, lands in the
			// overflow heap and migrates back as lo advances.
			delta := Time(1 + (h>>16)%3000)
			k := spawnedBase + *nextKey*2
			*nextKey++
			out = append(out, event{t: ev.t + delta, key: k})
		}
		return out
	}
}

// calDrainAll drains q to empty through the batched tick protocol,
// feeding each popped event to spawn and pushing what it returns —
// the same shape as runState.drain.
func calDrainAll(q *calQueue, spawn func(event) []event) []event {
	var out []event
	for {
		tick, ok := q.nextTick()
		if !ok {
			break
		}
		b := q.takeTick(tick)
		for i := range b {
			out = append(out, b[i])
			for _, s := range spawn(b[i]) {
				q.push(s)
			}
			for {
				ev, ok := q.takeSame()
				if !ok {
					break
				}
				out = append(out, ev)
				for _, s := range spawn(ev) {
					q.push(s)
				}
			}
		}
		q.finishTick(tick, b)
	}
	return out
}

// heapDrainAll is the reference: a plain pop loop over the 4-ary heap.
func heapDrainAll(h *eventHeap, spawn func(event) []event) []event {
	var out []event
	for len(h.a) > 0 {
		ev := h.pop()
		out = append(out, ev)
		for _, s := range spawn(ev) {
			h.push(s)
		}
	}
	return out
}

// diffCompare pushes the given initial events into both queues, drains
// both with identically-salted spawners, and requires identical (t,
// key) sequences.
func diffCompare(t *testing.T, span Time, initial []event, salt uint64) {
	t.Helper()
	var q calQueue
	q.reset(span, false)
	var h eventHeap
	for _, ev := range initial {
		q.push(ev)
		h.push(ev)
	}
	var calKeys, heapKeys uint64
	got := calDrainAll(&q, diffSpawner(salt, &calKeys))
	want := heapDrainAll(&h, diffSpawner(salt, &heapKeys))
	if len(got) != len(want) {
		t.Fatalf("calendar popped %d events, heap %d", len(got), len(want))
	}
	for i := range got {
		if got[i].t != want[i].t || got[i].key != want[i].key {
			t.Fatalf("pop %d: calendar (t=%d key=%#x), heap (t=%d key=%#x)",
				i, got[i].t, got[i].key, want[i].t, want[i].key)
		}
	}
	if !q.empty() || q.sameN != len(q.same) {
		t.Fatalf("calendar queue not empty after full drain: ring %d, overflow %d, same %d/%d",
			q.ringN, len(q.over.a), q.sameN, len(q.same))
	}
}

// genInitial builds an initial event set from a deterministic byte
// stream: times cluster on few ticks (collisions), spread over ranges
// far beyond any span (overflow), and arrive in arbitrary order
// (below-lo pushes after the window snapped to an early frontier).
func genInitial(data []byte) []event {
	n := 0
	var evs []event
	for i := 0; i+2 < len(data) && n < 300; i += 3 {
		// Two time regimes from the low bit: dense (collisions on a few
		// ticks) and sparse (tens of thousands of ticks apart).
		tRaw := Time(data[i])<<8 | Time(data[i+1])
		var tt Time
		if data[i+2]&1 == 0 {
			tt = tRaw % 40
		} else {
			tt = tRaw * 7
		}
		evs = append(evs, event{t: tt, key: uint64(n) * 2})
		n++
	}
	return evs
}

func FuzzCalendarQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint64(1), false)
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2}, uint64(42), true)
	f.Add([]byte{255, 255, 1, 0, 3, 0, 200, 100, 50, 9, 9, 9}, uint64(7), false)
	f.Fuzz(func(t *testing.T, data []byte, salt uint64, small bool) {
		span := Time(512)
		if small {
			// A 64-slot ring forces heavy overflow traffic and repeated
			// migration as lo advances.
			span = 64
		}
		evs := genInitial(data)
		if len(evs) == 0 {
			return
		}
		diffCompare(t, span, evs, salt)
	})
}

// TestCalQueueDifferentialRandom is the deterministic property-test
// cousin of FuzzCalendarQueue: many seeded random event sets, both span
// sizes, heavy same-tick collision rates.
func TestCalQueueDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(200)
		evs := make([]event, n)
		for i := range evs {
			var tt Time
			switch rng.Intn(3) {
			case 0:
				tt = Time(rng.Intn(25)) // dense: many same-tick collisions
			case 1:
				tt = Time(rng.Intn(5000))
			default:
				tt = Time(rng.Intn(200000)) // far beyond any ring span
			}
			evs[i] = event{t: tt, key: uint64(i) * 2}
		}
		span := Time(64)
		if round%2 == 0 {
			span = 1024
		}
		diffCompare(t, span, evs, rng.Uint64())
	}
}

// TestCalQueueHeapMode pins the controller path: in heap mode every
// push routes to the overflow heap and popHeap replays the exact heap
// order, including same-tick timer keys that are not successor-shaped.
func TestCalQueueHeapMode(t *testing.T) {
	var q calQueue
	q.reset(64, true)
	var h eventHeap
	evs := []event{
		{t: 10, key: packetKey(0, 0, evSend)},
		{t: 10, key: timerKeyBit | 0},
		{t: 10, key: timerKeyBit | 1},
		{t: 5, key: packetKey(1, 0, evSend)},
		{t: 10, key: packetKey(1, 1, evCut)},
	}
	for _, ev := range evs {
		q.push(ev)
		h.push(ev)
	}
	for h.a != nil && len(h.a) > 0 {
		if q.heapLen() == 0 {
			t.Fatal("calendar heap mode ran out of events early")
		}
		got, want := q.popHeap(), h.pop()
		if got.t != want.t || got.key != want.key {
			t.Fatalf("heap mode pop (t=%d key=%#x), want (t=%d key=%#x)", got.t, got.key, want.t, want.key)
		}
	}
	if q.heapLen() != 0 {
		t.Fatalf("heap mode retains %d events", q.heapLen())
	}
}

// TestCalQueueReuse pins scratch-style reuse: a queue drained by one
// run (including an aborted, partially-drained state) serves the next
// run with a different span without leaking stale events.
func TestCalQueueReuse(t *testing.T) {
	var q calQueue
	q.reset(64, false)
	for i := 0; i < 50; i++ {
		q.push(event{t: Time(i * 3), key: uint64(i) * 2})
	}
	// Partial drain: take one tick and abandon the rest mid-run.
	tick, ok := q.nextTick()
	if !ok {
		t.Fatal("expected pending events")
	}
	b := q.takeTick(tick)
	q.finishTick(tick, b)

	q.reset(128, false)
	if !q.empty() {
		t.Fatalf("reset queue not empty: ring %d, overflow %d", q.ringN, len(q.over.a))
	}
	q.push(event{t: 7, key: 2})
	q.push(event{t: 7, key: 0})
	got := calDrainAll(&q, func(event) []event { return nil })
	if len(got) != 2 || got[0].key != 0 || got[1].key != 2 {
		t.Fatalf("after reuse popped %v", got)
	}
}

// TestSortBucketSortedFastPath pins the lockstep fast path: an already
// key-sorted bucket must come back untouched, an unsorted one sorted.
func TestSortBucketSortedFastPath(t *testing.T) {
	sorted := []event{{key: 1}, {key: 2}, {key: 5}, {key: 9}}
	sortBucket(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].key < sorted[i-1].key {
			t.Fatalf("sorted bucket reordered at %d", i)
		}
	}
	unsorted := []event{{key: 9}, {key: 2}, {key: 5}, {key: 1}}
	sortBucket(unsorted)
	for i, want := range []uint64{1, 2, 5, 9} {
		if unsorted[i].key != want {
			t.Fatalf("sortBucket: pos %d key %d, want %d", i, unsorted[i].key, want)
		}
	}
}

// TestSpanForParams pins the sizing rule: a power of two covering twice
// the common spawn offsets, clamped to [64, 8192].
func TestSpanForParams(t *testing.T) {
	cases := []struct {
		p    Params
		want Time
	}{
		{Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}, 512}, // default: 2*(100+40+37+20)=394 → 512
		{Params{TauS: 0, Alpha: 1, Mu: 1, D: 0}, 64},      // tiny: clamps at 64
		{Params{TauS: 100000, Alpha: 20, Mu: 2, D: 37}, 8192},
	}
	for _, tc := range cases {
		if got := spanForParams(tc.p); got != tc.want {
			t.Errorf("spanForParams(%+v) = %d, want %d", tc.p, got, tc.want)
		}
		got := spanForParams(tc.p)
		if got&(got-1) != 0 {
			t.Errorf("span %d not a power of two", got)
		}
	}
}
