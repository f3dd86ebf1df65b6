package simnet

import (
	"math/rand"
	"strings"
	"testing"

	"ihc/internal/topology"
)

// TestCopyLedgerBasics pins the closed-form checks: a uniform
// want-per-source fill passes, and each violation class — self copy,
// wrong total, per-source imbalance that preserves the total — fails
// with a distinguishable error.
func TestCopyLedgerBasics(t *testing.T) {
	const n, want = 8, 3
	fill := func() *CopyLedger {
		l := NewCopyLedger(n)
		for r := 0; r < n; r++ {
			for s := 0; s < n; s++ {
				if r == s {
					continue
				}
				for c := 0; c < want; c++ {
					l.Add(topology.Node(r), topology.Node(s))
				}
			}
		}
		return l
	}
	if err := fill().VerifyATA(want); err != nil {
		t.Fatalf("uniform fill rejected: %v", err)
	}

	l := fill()
	l.Add(2, 2)
	if err := l.VerifyATA(want); err == nil || !strings.Contains(err.Error(), "its own message") {
		t.Fatalf("self copy not caught: %v", err)
	}

	l = fill()
	l.Add(3, 5)
	if err := l.VerifyATA(want); err == nil || !strings.Contains(err.Error(), "in total") {
		t.Fatalf("extra copy not caught: %v", err)
	}

	// The adversarial case for a counters-only design: one copy from
	// source 5 replaced by one from source 6 — total preserved, only the
	// fingerprint checksum can notice.
	l = NewCopyLedger(n)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			if r == s {
				continue
			}
			c := want
			if r == 3 && s == 5 {
				c = want - 1
			}
			if r == 3 && s == 6 {
				c = want + 1
			}
			for k := 0; k < c; k++ {
				l.Add(topology.Node(r), topology.Node(s))
			}
		}
	}
	if err := l.VerifyATA(want); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("per-source imbalance not caught by checksum: %v", err)
	}
}

// TestCopyLedgerMergeCommutes pins the merge contract: random delivery
// sets split across several ledgers merge to the same totals in any
// order, equal to one ledger fed everything.
func TestCopyLedgerMergeCommutes(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(5))
	type deliv struct{ r, s topology.Node }
	var all []deliv
	for i := 0; i < 2000; i++ {
		all = append(all, deliv{topology.Node(rng.Intn(n)), topology.Node(rng.Intn(n))})
	}
	whole := NewCopyLedger(n)
	parts := []*CopyLedger{NewCopyLedger(n), NewCopyLedger(n), NewCopyLedger(n)}
	for i, d := range all {
		whole.Add(d.r, d.s)
		parts[i%3].Add(d.r, d.s)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		merged := NewCopyLedger(n)
		for _, i := range order {
			merged.Merge(parts[i])
		}
		for r := 0; r < n; r++ {
			if merged.count[r] != whole.count[r] || merged.self[r] != whole.self[r] || merged.fpSum[r] != whole.fpSum[r] {
				t.Fatalf("merge order %v: receiver %d (count %d self %d sum %#x) != whole (count %d self %d sum %#x)",
					order, r, merged.count[r], merged.self[r], merged.fpSum[r],
					whole.count[r], whole.self[r], whole.fpSum[r])
			}
		}
	}
}

// TestLedgerMatchesMatrix runs the same engine workload with both
// accountants attached and requires them to agree — the ledger is the
// matrix's O(N) shadow, not an independent truth.
func TestLedgerMatchesMatrix(t *testing.T) {
	g, specs := pipelineSpecs(32)
	p := Params{TauS: 100, Alpha: 20, Mu: 2, D: 37}
	ledger := NewCopyLedger(g.N())
	res := mustRun(t, g, p, specs, Options{Copies: true, Ledger: ledger})
	for r := 0; r < g.N(); r++ {
		var wantCount int64
		var wantSum uint64
		for s := 0; s < g.N(); s++ {
			c := int64(res.Copies.Get(topology.Node(r), topology.Node(s)))
			if r == s {
				if ledger.self[r] != c {
					t.Fatalf("receiver %d self copies ledger %d, matrix %d", r, ledger.self[r], c)
				}
				continue
			}
			wantCount += c
			wantSum += uint64(c) * ledgerMix(topology.Node(s))
		}
		if ledger.count[r] != wantCount || ledger.fpSum[r] != wantSum {
			t.Fatalf("receiver %d ledger (count %d sum %#x), matrix implies (count %d sum %#x)",
				r, ledger.count[r], ledger.fpSum[r], wantCount, wantSum)
		}
	}
}
