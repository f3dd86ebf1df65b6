package cluster

import (
	"context"
	"testing"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/reliable"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

func q3(t *testing.T) *core.IHC {
	t.Helper()
	g := topology.MustHypercube(3)
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.New(g, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func quickTiming(cfg Config) Config {
	cfg.StageDur = 30 * time.Millisecond
	cfg.HopLatency = time.Millisecond
	cfg.Slack = 60 * time.Millisecond
	cfg.Retry = transport.BackoffConfig{
		Base: 10 * time.Millisecond, Max: 150 * time.Millisecond,
		Factor: 1.6, Jitter: 0.2, Seed: 42,
	}
	cfg.MaxAttempts = 30
	cfg.Timeout = 20 * time.Second
	return cfg
}

// truthPayload makes every node inject its one-shot truth payload.
func truthPayload(v topology.Node, _ uint32) []byte { return reliable.TruthPayload(v) }

// oneShot runs cfg as a one-shot ATA round: epoch 0 of a one-epoch
// stream.
func oneShot(t *testing.T, cfg Config) *StreamResult {
	t.Helper()
	res, err := RunStream(context.Background(), StreamConfig{Config: cfg, Epochs: 1, Payload: truthPayload})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoopbackFaultFree runs a fault-free Q3 ATA round over the
// in-process mesh and checks both the per-node γ-copy ledgers and the
// delivery-multiset equivalence against the discrete-event engine.
func TestLoopbackFaultFree(t *testing.T) {
	cfg := quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7})
	res := oneShot(t, cfg)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 8 {
		t.Fatalf("got %d survivors, want 8", len(res.PerNode))
	}
	if err := CompareWithSimnet(cfg, res); err != nil {
		t.Fatal(err)
	}
}

// TestTCPFaultFree is the same round over real sockets.
func TestTCPFaultFree(t *testing.T) {
	cfg := quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7, TCP: true})
	res := oneShot(t, cfg)
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := CompareWithSimnet(cfg, res); err != nil {
		t.Fatal(err)
	}
}

// chaosQuick is the transport-quick fault plan: background frame chaos
// on every link, a mid-round partition of link {1,3} (not incident to
// the crash victim), and node 6 crashing during stage 1 — after its own
// stage-0 injections have propagated, so survivors still owe each other
// exactly γ copies of all 8 sources.
func chaosQuick(stageDur time.Duration) *chaos.Config {
	tick := time.Millisecond
	stage := int64(stageDur / tick)
	return &chaos.Config{
		Plan: &fault.TemporalPlan{
			Nodes: []fault.NodeFault{{Node: 6, Kind: fault.Crash, At: 1}},
			Links: []fault.LinkFault{{U: 1, V: 3, From: 1, Until: 4}},
		},
		// Plan times are in stages here: scale ticks so tick 1 =
		// one stage into the round.
		TickDur:     time.Duration(stage) * tick,
		Seed:        99,
		DropRate:    0.05,
		DupRate:     0.05,
		CorruptRate: 0.03,
		DelayRate:   0.1,
		MaxDelay:    3 * time.Millisecond,
	}
}

// TestLoopbackChaos drives the full chaos scenario — drop, dup,
// corrupt, delay, partition, crash — over the in-process mesh and
// asserts the surviving nodes' exact γ-copy postcondition.
func TestLoopbackChaos(t *testing.T) {
	cfg := quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7})
	cfg.Chaos = chaosQuick(cfg.StageDur)
	res := oneShot(t, cfg)
	if len(res.Crashed) != 1 || res.Crashed[0] != 6 {
		t.Fatalf("crashed = %v, want [6]", res.Crashed)
	}
	if len(res.PerNode) != 7 {
		t.Fatalf("got %d survivors, want 7", len(res.PerNode))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPChaos is the headline scenario over real sockets and
// socket-level chaos proxies.
func TestTCPChaos(t *testing.T) {
	cfg := quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7, TCP: true})
	cfg.Chaos = chaosQuick(cfg.StageDur)
	res := oneShot(t, cfg)
	if len(res.PerNode) != 7 {
		t.Fatalf("got %d survivors, want 7", len(res.PerNode))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFailsOnIsolatedNode is the verdict's failure path: every
// link of node 5 is partitioned for the whole round (no crash, so node
// 5 still reports), so nobody can complete it. Verify must reject the
// run, and node 5's only verdict must be a failed epoch 0.
func TestVerifyFailsOnIsolatedNode(t *testing.T) {
	cfg := quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7})
	cfg.MaxAttempts = 2
	var cut []fault.LinkFault
	for _, nb := range cfg.IHC.Graph().Neighbors(5) {
		cut = append(cut, fault.LinkFault{U: 5, V: nb, Until: fault.Forever})
	}
	cfg.Chaos = &chaos.Config{Plan: &fault.TemporalPlan{Links: cut}}
	res, err := RunStream(context.Background(), StreamConfig{
		Config: cfg, Epochs: 1, Drain: 200 * time.Millisecond, Payload: truthPayload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != 0 || len(res.PerNode) != 8 {
		t.Fatalf("crashed %v, %d nodes reporting; want none crashed, 8 reporting", res.Crashed, len(res.PerNode))
	}
	if err := res.Verify(); err == nil {
		t.Fatal("Verify accepted a round in which node 5 was cut off")
	}
	if got := res.PerNode[5]; len(got) != 1 || got[0].Epoch != 0 || got[0].Completed {
		t.Fatalf("node 5 verdicts %+v, want one failed epoch 0", got)
	}
}
