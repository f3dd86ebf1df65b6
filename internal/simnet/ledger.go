package simnet

import (
	"fmt"

	"ihc/internal/topology"
)

// CopyLedger is the counters-only Theorem-4 accountant: O(N) memory
// where CopyMatrix is O(N²), so a Q14 (16384-node) or Q16 (65536-node)
// full ATA can verify "every node received exactly γ copies of every
// other node's message" without retaining a 536 MB–8.6 GB matrix or an
// O(events) delivery log.
//
// Per receiver it keeps two aggregates over the sources it heard from:
// the total copy count and the sum of a 64-bit fingerprint of each
// source (splitmix64 of the source id — the same full-avalanche mixer
// that seeds per-arc background traffic). The ATA postcondition "want
// copies from each of the N-1 other sources, none from itself" pins
// both aggregates to closed forms:
//
//	count[r] == want · (N-1)
//	fpSum[r] == want · (Σ_s mix(s) − mix(r))   (mod 2⁶⁴)
//
// A violating run escapes detection only if its multiset of source
// fingerprints collides with the expected one under 64-bit wrapping
// sums — for adversarially chosen inputs a checksum, not a proof, but
// for engine verification (where the failure modes are missed or
// duplicated deliveries, not chosen-preimage attacks) the collision
// probability is ~2⁻⁶⁴ per receiver. The exact matrix remains available
// via Options.Copies at scales where O(N²) is affordable; equivalence
// tests pin the two against each other.
//
// Add is single-goroutine (the engine calls it from the event loop).
// Both aggregates are sums, so ledgers filled by separate runs Merge
// commutatively into identical totals.
type CopyLedger struct {
	n     int
	count []int64  // copies received, per receiver, from any other node
	self  []int64  // copies received from the receiver itself (must stay 0)
	fpSum []uint64 // Σ mix(source) over received copies, per receiver, mod 2⁶⁴
	allFp uint64   // Σ_s mix(s) over all n nodes, mod 2⁶⁴
}

// ledgerMix fingerprints a node id for the ledger's checksum. The +1
// keeps node 0 off splitmix64's fixed seed path (mix(0) is a perfectly
// good value, but distinct inputs to the bijection guarantee distinct
// fingerprints, and offsetting costs nothing).
func ledgerMix(node topology.Node) uint64 {
	return splitmix64(uint64(node) + 1)
}

// NewCopyLedger returns a zeroed ledger for an n-node network.
func NewCopyLedger(n int) *CopyLedger {
	l := &CopyLedger{
		n:     n,
		count: make([]int64, n),
		self:  make([]int64, n),
		fpSum: make([]uint64, n),
	}
	for s := 0; s < n; s++ {
		l.allFp += ledgerMix(topology.Node(s))
	}
	return l
}

// N returns the node count the ledger was sized for.
func (l *CopyLedger) N() int { return l.n }

// Add records one copy of src's message delivered at recv.
func (l *CopyLedger) Add(recv, src topology.Node) {
	if recv == src {
		l.self[recv]++
		return
	}
	l.count[recv]++
	l.fpSum[recv] += ledgerMix(src)
}

// Count returns how many copies recv received from nodes other than
// itself.
func (l *CopyLedger) Count(recv topology.Node) int64 { return l.count[recv] }

// Merge adds all of other's aggregates into l. The ledgers must be the
// same size. Merging is commutative and associative, so ledgers
// combined in any order yield identical totals.
func (l *CopyLedger) Merge(other *CopyLedger) {
	if other.n != l.n {
		panic(fmt.Sprintf("simnet: merging %d-node ledger into %d-node ledger", other.n, l.n))
	}
	for i := 0; i < l.n; i++ {
		l.count[i] += other.count[i]
		l.self[i] += other.self[i]
		l.fpSum[i] += other.fpSum[i]
	}
}

// Reset zeroes the per-receiver aggregates, keeping the backing arrays
// (and the precomputed all-nodes fingerprint sum) for reuse.
func (l *CopyLedger) Reset() {
	clear(l.count)
	clear(l.self)
	clear(l.fpSum)
}

// VerifyReceiver checks the postcondition for a single receiver: node
// recv received exactly want copies of every other node's message and
// none of its own. This is the per-node verdict a live daemon renders
// over its own row — each cluster member keeps a full-size ledger but
// only ever adds to its own row, so the whole-network VerifyATA would
// wrongly flag the other (empty) rows.
func (l *CopyLedger) VerifyReceiver(recv topology.Node, want int) error {
	if int(recv) < 0 || int(recv) >= l.n {
		return fmt.Errorf("simnet: receiver %d outside [0,%d)", recv, l.n)
	}
	r := int(recv)
	if l.self[r] != 0 {
		return fmt.Errorf("simnet: node %d received %d copies of its own message", r, l.self[r])
	}
	wantCount := int64(want) * int64(l.n-1)
	if l.count[r] != wantCount {
		return fmt.Errorf("simnet: node %d received %d copies in total, want %d (%d from each of %d sources)",
			r, l.count[r], wantCount, want, l.n-1)
	}
	wantSum := uint64(want) * (l.allFp - ledgerMix(recv))
	if l.fpSum[r] != wantSum {
		return fmt.Errorf("simnet: node %d's copy checksum %#x differs from the uniform %d-per-source expectation %#x: some source is over-represented and another under-represented",
			r, l.fpSum[r], want, wantSum)
	}
	return nil
}

// VerifyATA checks the all-to-all postcondition against the ledger:
// every node received exactly want copies of every other node's message
// and none of its own. Count mismatches are exact; a per-source
// imbalance that preserves the total is caught by the fingerprint
// checksum (up to the ~2⁻⁶⁴ collision probability documented on the
// type).
func (l *CopyLedger) VerifyATA(want int) error {
	for r := 0; r < l.n; r++ {
		if l.self[r] != 0 {
			return fmt.Errorf("simnet: node %d received %d copies of its own message", r, l.self[r])
		}
		wantCount := int64(want) * int64(l.n-1)
		if l.count[r] != wantCount {
			return fmt.Errorf("simnet: node %d received %d copies in total, want %d (%d from each of %d sources)",
				r, l.count[r], wantCount, want, l.n-1)
		}
		wantSum := uint64(want) * (l.allFp - ledgerMix(topology.Node(r)))
		if l.fpSum[r] != wantSum {
			return fmt.Errorf("simnet: node %d's copy checksum %#x differs from the uniform %d-per-source expectation %#x: some source is over-represented and another under-represented",
				r, l.fpSum[r], want, wantSum)
		}
	}
	return nil
}
