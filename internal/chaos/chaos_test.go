package chaos

import (
	"testing"
	"time"

	"ihc/internal/fault"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

func q3Plan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	cfg.Graph = topology.MustHypercube(3)
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// verdicts filters frames round-robin over every arc of the plan's
// graph and returns the verdict sequence.
func verdicts(p *Plan, frames int) []transport.FilterAction {
	arcs := p.cfg.Graph.Arcs()
	out := make([]transport.FilterAction, 0, frames)
	for i := 0; i < frames; i++ {
		a := arcs[i%len(arcs)]
		out = append(out, p.Filter(a.From, a.To, time.Duration(i)*time.Millisecond))
	}
	return out
}

// TestFilterDeterministicForSeed: the background coins are a pure
// function of (seed, arc, frame index), so two plans with one seed
// render the same verdict sequence — and a different seed does not.
func TestFilterDeterministicForSeed(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.2, DupRate: 0.2, CorruptRate: 0.2, DelayRate: 0.2}
	a := verdicts(q3Plan(t, cfg), 500)
	b := verdicts(q3Plan(t, cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d: verdict %+v, then %+v under the same seed", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := verdicts(q3Plan(t, cfg), 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 rendered identical verdict sequences")
	}
}

// TestPartitionWindow: a link window drops every frame on both arcs
// inside [From, Until) and none at Until; other links are untouched.
func TestPartitionWindow(t *testing.T) {
	p := q3Plan(t, Config{
		TickDur: 2 * time.Millisecond,
		Plan:    &fault.TemporalPlan{Links: []fault.LinkFault{{U: 0, V: 1, From: 5, Until: 10}}},
	})
	for _, tc := range []struct {
		at   time.Duration
		drop bool
	}{
		{9 * time.Millisecond, false},
		{10 * time.Millisecond, true},
		{15 * time.Millisecond, true},
		{19 * time.Millisecond, true},
		{20 * time.Millisecond, false},
		{time.Second, false},
	} {
		for _, arc := range [][2]topology.Node{{0, 1}, {1, 0}} {
			if got := p.Filter(arc[0], arc[1], tc.at).Drop; got != tc.drop {
				t.Errorf("arc %d->%d at %s: drop %v, want %v", arc[0], arc[1], tc.at, got, tc.drop)
			}
			if got := p.Partitioned(arc[0], arc[1], tc.at); got != tc.drop {
				t.Errorf("arc %d->%d at %s: partitioned %v, want %v", arc[0], arc[1], tc.at, got, tc.drop)
			}
		}
		if act := p.Filter(0, 2, tc.at); act != (transport.FilterAction{}) {
			t.Errorf("untouched arc 0->2 at %s: %+v", tc.at, act)
		}
	}
}

// TestCorruptWindow: a Corrupt window corrupts frames on both arcs
// inside the window without dropping them, and is no partition.
func TestCorruptWindow(t *testing.T) {
	p := q3Plan(t, Config{
		Plan: &fault.TemporalPlan{Links: []fault.LinkFault{{U: 2, V: 3, From: 0, Until: fault.Forever, Corrupt: true}}},
	})
	for _, arc := range [][2]topology.Node{{2, 3}, {3, 2}} {
		act := p.Filter(arc[0], arc[1], time.Hour)
		if !act.Corrupt || act.Drop {
			t.Errorf("arc %d->%d inside a corrupt window: %+v, want corrupt and delivered", arc[0], arc[1], act)
		}
		if p.Partitioned(arc[0], arc[1], time.Hour) {
			t.Errorf("arc %d->%d: a corrupt window reads as a partition", arc[0], arc[1])
		}
	}
	if act := p.Filter(2, 0, time.Hour); act.Corrupt {
		t.Errorf("arc 2->0 outside every window corrupted: %+v", act)
	}
}

// TestRateExtremes: zero rates never act; DropRate 1 always drops.
func TestRateExtremes(t *testing.T) {
	for i, act := range verdicts(q3Plan(t, Config{Seed: 7}), 1000) {
		if act != (transport.FilterAction{}) {
			t.Fatalf("frame %d: zero rates acted: %+v", i, act)
		}
	}
	for i, act := range verdicts(q3Plan(t, Config{Seed: 7, DropRate: 1}), 1000) {
		if !act.Drop {
			t.Fatalf("frame %d: DropRate 1 delivered: %+v", i, act)
		}
	}
}

// TestNewPlanRejects: a rate outside [0,1], an invalid temporal plan
// and a missing graph are configuration errors.
func TestNewPlanRejects(t *testing.T) {
	g := topology.MustHypercube(3)
	bad := map[string]Config{
		"no graph":         {},
		"drop rate -0.1":   {Graph: g, DropRate: -0.1},
		"dup rate 1.5":     {Graph: g, DupRate: 1.5},
		"corrupt rate 2":   {Graph: g, CorruptRate: 2},
		"delay rate -1":    {Graph: g, DelayRate: -1},
		"non-edge link":    {Graph: g, Plan: &fault.TemporalPlan{Links: []fault.LinkFault{{U: 0, V: 7, Until: 1}}}},
		"node outside":     {Graph: g, Plan: &fault.TemporalPlan{Nodes: []fault.NodeFault{{Node: 8, Kind: fault.Crash}}}},
		"negative node At": {Graph: g, Plan: &fault.TemporalPlan{Nodes: []fault.NodeFault{{Node: 1, Kind: fault.Crash, At: -1}}}},
	}
	for name, cfg := range bad {
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("%s: NewPlan accepted it", name)
		}
	}
}

// TestCrashes: every Crash entry surfaces at At·TickDur; other fault
// kinds are not crashes.
func TestCrashes(t *testing.T) {
	p := q3Plan(t, Config{
		TickDur: 7 * time.Millisecond,
		Plan: &fault.TemporalPlan{Nodes: []fault.NodeFault{
			{Node: 6, Kind: fault.Crash, At: 3},
			{Node: 2, Kind: fault.Crash},
			{Node: 4, Kind: fault.Byzantine, At: 1},
		}},
	})
	want := map[topology.Node]time.Duration{6: 21 * time.Millisecond, 2: 0}
	got := p.Crashes()
	if len(got) != len(want) {
		t.Fatalf("crashes %v, want %v", got, want)
	}
	for v, at := range want {
		if g, ok := got[v]; !ok || g != at {
			t.Fatalf("crashes %v, want %v", got, want)
		}
	}
	if n := len(q3Plan(t, Config{}).Crashes()); n != 0 {
		t.Fatalf("a plan without a temporal plan lists %d crashes", n)
	}
}
