package cluster

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/fault"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/repair"
	"ihc/internal/topology"
)

func wantKey(s topology.Node, ch uint8) repair.Want {
	return repair.Want{Source: s, Channel: ch}
}

func quickStream(t *testing.T) StreamConfig {
	t.Helper()
	return StreamConfig{
		Config:      quickTiming(Config{IHC: q3(t), Eta: 2, KeySeed: 7}),
		Epochs:      6,
		Period:      120 * time.Millisecond,
		MaxInflight: 2,
		Drain:       4 * time.Second,
		Load:        LoadSpec{Interval: 10 * time.Millisecond, Bytes: 64, HighEvery: 4},
		Gauges:      &observe.StreamGauges{},
	}
}

// TestStreamFaultFree pipelines six epochs over a fault-free Q3
// loopback mesh under synthetic client load and checks every node's
// per-epoch γ-copy verdict.
func TestStreamFaultFree(t *testing.T) {
	cfg := quickStream(t)
	res, err := RunStream(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.EpochsCompleted < int64(cfg.Epochs*8) {
		t.Fatalf("completed %d per-node epochs, want ≥ %d", res.Snapshot.EpochsCompleted, cfg.Epochs*8)
	}
	if res.Snapshot.Payloads == 0 {
		t.Fatal("no client payloads delivered under load")
	}
}

// TestStreamEquivalenceOneShot is the acceptance bridge: at
// MaxInflight=1 with the ingress bypassed, every streamed epoch must
// deliver the same multiset — byte-identical payload per (source,
// channel), one copy per channel per source — that a one-shot
// cluster.Run round delivers on the same schedule.
func TestStreamEquivalenceOneShot(t *testing.T) {
	cfg := quickStream(t)
	cfg.Epochs = 3
	cfg.MaxInflight = 1
	cfg.Load = LoadSpec{}
	cfg.CollectPayloads = true
	cfg.Payload = func(v topology.Node, epoch uint32) []byte {
		return reliable.TruthPayload(v) // the one-shot injection payload
	}
	res, err := RunStream(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}

	ref, err := Run(context.Background(), cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Verify(); err != nil {
		t.Fatal(err)
	}

	gamma := cfg.IHC.Gamma()
	n := cfg.IHC.N()
	for v, results := range res.PerNode {
		refCopies := ref.Nodes[v].Copies
		for _, er := range results {
			for s := 0; s < n; s++ {
				src := topology.Node(s)
				if src == v {
					continue
				}
				chans := append([]uint8(nil), er.Copies[src]...)
				sort.Slice(chans, func(i, j int) bool { return chans[i] < chans[j] })
				refChans := append([]uint8(nil), refCopies[src]...)
				sort.Slice(refChans, func(i, j int) bool { return refChans[i] < refChans[j] })
				if len(chans) != len(refChans) {
					t.Fatalf("node %d epoch %d: %d copies from %d, one-shot delivered %d",
						v, er.Epoch, len(chans), s, len(refChans))
				}
				for j := range chans {
					if chans[j] != refChans[j] {
						t.Fatalf("node %d epoch %d source %d: channels %v, one-shot %v",
							v, er.Epoch, s, chans, refChans)
					}
				}
				want := reliable.TruthPayload(src)
				for j := 0; j < gamma; j++ {
					got := er.Payloads[wantKey(src, uint8(j))]
					if !bytes.Equal(got, want) {
						t.Fatalf("node %d epoch %d source %d channel %d: payload differs from one-shot",
							v, er.Epoch, s, j)
					}
				}
			}
		}
	}
}

// TestStreamSoakKillRestart is the robustness core: twenty pipelined
// epochs with background frame chaos, a mid-stream partition window,
// and one node killed with zero notice and restarted cold. The victim
// must rediscover the epoch via the JOIN handshake and catch up; the
// survivors must complete every epoch — including the rounds that
// stalled waiting for the victim's copies — and no high-priority
// payload may be shed.
func TestStreamSoakKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	before := runtime.NumGoroutine()
	cfg := quickStream(t)
	cfg.Epochs = 20
	cfg.Period = 150 * time.Millisecond
	cfg.Timeout = 45 * time.Second
	cfg.Drain = 10 * time.Second
	cfg.Kill = &KillSpec{Node: 6, At: 600 * time.Millisecond, Downtime: 500 * time.Millisecond}
	cfg.Chaos = &chaos.Config{
		Seed:     99,
		DropRate: 0.02, DupRate: 0.02, CorruptRate: 0.01, DelayRate: 0.05,
		// Partition link {1,3} (not incident to the victim) for ticks
		// [1400,1800) = a 400ms window while the victim is back up.
		Plan: &fault.TemporalPlan{Links: []fault.LinkFault{{U: 1, V: 3, From: 1400, Until: 1800}}},
	}
	res, err := RunStream(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.EpochsCaughtUp == 0 {
		t.Fatal("kill/restart produced no catch-up epochs")
	}
	if res.Snapshot.Joins == 0 {
		t.Fatal("restarted node never sent a JOIN")
	}
	// The shared sink's epoch gauge counts per-node rounds across every
	// lifetime, catch-up re-runs included — exactly the completed
	// verdicts RunStream reports per node.
	completed := int64(0)
	for _, results := range res.PerNode {
		for _, er := range results {
			if er.Completed {
				completed++
			}
		}
	}
	if res.Snapshot.EpochsCompleted != completed {
		t.Fatalf("gauge counts %d completed epoch rounds, PerNode holds %d completed verdicts",
			res.Snapshot.EpochsCompleted, completed)
	}
	// Goroutine hygiene: everything RunStream started must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}
