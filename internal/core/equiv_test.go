package core

import (
	"reflect"
	"testing"

	"ihc/internal/hamilton"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// TestATAPostconditionsIHC runs full IHC ATA broadcasts at η = μ = 2 on
// the paper's networks with both accountants attached; see
// checkATAPostconditions. T4x4x4 reaches beyond the conformance
// battery's sizes.
func TestATAPostconditionsIHC(t *testing.T) {
	checkATAPostconditions(t, []ataCase{
		{"SQ4", topology.MustSquareTorus(4)},
		{"Q6", topology.MustHypercube(6)},
		{"T4x4x4", topology.MustTorusND(4, 4, 4)},
	})
}

// TestATAPostconditionsFamilies does the same for the registry's added
// families: the twisted cubes (TQ3 and TQ5 leave edges idle) and the
// odd-N 3-ary and 5-ary tori, run at η = 2 across the ragged
// interleaving seam.
func TestATAPostconditionsFamilies(t *testing.T) {
	checkATAPostconditions(t, []ataCase{
		{"TQ3", topology.MustTwistedCube(3)},
		{"TQ4", topology.MustTwistedCube(4)},
		{"TQ5", topology.MustTwistedCube(5)},
		{"KT3x2", topology.MustKAryTorus(3, 2)},
		{"KT3x3", topology.MustKAryTorus(3, 3)},
		{"KT5x2", topology.MustKAryTorus(5, 2)},
	})
}

type ataCase struct {
	name string
	g    *topology.Graph
}

// checkATAPostconditions requires, for each case, the exact Theorem 4
// γ-copy postcondition from the copy matrix and the counters-only ledger
// alike, plus a delivery log holding every one of the γN(N−1) copies.
func checkATAPostconditions(t *testing.T, cases []ataCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycles, err := hamilton.Decompose(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			x, err := New(tc.g, cycles)
			if err != nil {
				t.Fatal(err)
			}
			res, err := x.Run(Config{
				Eta:              2,
				Params:           simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37},
				RecordDeliveries: true,
				Ledger:           true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Copies.VerifyATA(x.Gamma()); err != nil {
				t.Errorf("ATA postcondition violated: %v", err)
			}
			if err := res.Ledger.VerifyATA(x.Gamma()); err != nil {
				t.Errorf("counters-only ledger violated: %v", err)
			}
			n := x.N()
			if want := x.Gamma() * n * (n - 1); res.Deliveries != want || len(res.Deliveriesv) != want {
				t.Errorf("deliveries %d, log %d entries, want γN(N−1) = %d", res.Deliveries, len(res.Deliveriesv), want)
			}
		})
	}
}

// TestSharedPathMatchesPerHopCompilation pins the compiled-path layout
// at the algorithm level: disabling the cycle-path cache (by patching
// every route to a fresh copy, which defeats the slice-identity check)
// must not change anything about the run.
func TestSharedPathMatchesPerHopCompilation(t *testing.T) {
	g := topology.MustHypercube(4)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Eta:              2,
		Params:           simnet.Params{TauS: 100, Alpha: 20, Mu: 2, D: 37},
		RecordDeliveries: true,
	}
	shared, err := x.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	perHop := base
	perHop.PatchRoutes = func(specs []simnet.PacketSpec) {
		for i := range specs {
			specs[i].Route = append([]topology.Node(nil), specs[i].Route...)
		}
	}
	plain, err := x.Run(perHop)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Finish != plain.Finish || shared.Events != plain.Events ||
		shared.Deliveries != plain.Deliveries || shared.Contentions != plain.Contentions {
		t.Fatalf("shared-path run differs from per-hop compilation:\n got %+v\nwant %+v", shared, plain)
	}
	if !reflect.DeepEqual(shared.Deliveriesv, plain.Deliveriesv) {
		t.Fatal("shared-path delivery log differs from per-hop compilation")
	}
}
