package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mobilecongest/internal/graph"
)

// parkedEngines are the engines whose node coroutines park on the
// RunContext: the step engine and the shard engine at 1 shard, 2 shards, and
// more shards than any lifecycle-test graph has nodes (clamped to n, so every
// node is its own shard).
var parkedEngines = []ContextRunner{
	StepEngine{}, ShardEngine{Shards: 1}, ShardEngine{Shards: 2}, ShardEngine{Shards: 1000},
}

func parkedName(e ContextRunner) string {
	if se, ok := e.(ShardEngine); ok {
		return fmt.Sprintf("shard%d", se.Shards)
	}
	return e.(Engine).Name()
}

// forParked runs a subtest under every parked-coroutine engine.
func forParked(t *testing.T, fn func(t *testing.T, e ContextRunner)) {
	t.Helper()
	for _, e := range parkedEngines {
		t.Run(parkedName(e), func(t *testing.T) { fn(t, e) })
	}
}

// mixProto is the healthy run of the lifecycle tests. It touches every piece
// of per-node state a reused context could leak between runs: inputs, the
// node RNG, the port outbox and inbox, the round clock, and the output.
// When badNode >= 0, that node sends an oversized payload in round badRound.
func mixProto(rounds int, badNode graph.NodeID, badRound int) Protocol {
	return func(rt Runtime) {
		pr := Ports(rt)
		acc := U64(rt.Input()) ^ uint64(rt.ID())
		for r := 0; r < rounds; r++ {
			out := pr.OutBuf()
			for p := range out {
				out[p] = U64Msg(acc ^ rt.Rand().Uint64())
			}
			if rt.ID() == badNode && r == badRound && len(out) > 0 {
				out[0] = make(Msg, 16)
			}
			for p, m := range pr.ExchangePorts(out) {
				if m != nil {
					acc = acc*31 + U64(m) + uint64(p) + uint64(rt.Round())
				}
			}
		}
		rt.SetOutput(acc)
	}
}

// lateBurst corrupts one edge per round until round 2, then every message,
// blowing its declared per-round budget of one edge mid-run.
type lateBurst struct{}

func (lateBurst) PerRoundEdges() int { return 1 }

func (lateBurst) Intercept(round int, rt *RoundTraffic) {
	for s, m := range rt.All() {
		c := append(Msg(nil), m...)
		c[0] ^= 0x5a
		rt.Set(s, c)
		if round < 2 {
			return
		}
	}
}

// healthyRun runs mixProto on g inside rc with a corrupting adversary and a
// trace observer, returning the Result and the trace.
func healthyRun(t *testing.T, e ContextRunner, rc *RunContext, g *graph.Graph) (*Result, []RoundTrace) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(g.N())))
	inputs := make([][]byte, g.N())
	for i := range inputs {
		inputs[i] = U64Msg(rng.Uint64())
	}
	tr := NewTraceObserver()
	res, err := e.RunIn(rc, Config{
		Graph: g, Seed: 11, Inputs: inputs,
		Adversary: slotFlipper{f: 2}, Observers: []Observer{tr},
	}, mixProto(5, -1, 0))
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Rounds()
}

// checkFresh asserts a healthy run in rc matches the same run in a fresh
// context, Result and trace alike.
func checkFresh(t *testing.T, e ContextRunner, rc *RunContext, g *graph.Graph, what string) {
	t.Helper()
	fresh := NewRunContext()
	defer fresh.Close()
	want, wantTr := healthyRun(t, e, fresh, g)
	got, gotTr := healthyRun(t, e, rc, g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reused-context result %+v, fresh %+v", what, got, want)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("%s: reused-context trace differs from a fresh context's", what)
	}
}

// TestParkedAbortThenHealthyRun: a run aborted mid-round leaves some node
// coroutines parked inside their protocol; the engine unwinds them, and the
// next run in the same context is identical to one in a fresh context.
func TestParkedAbortThenHealthyRun(t *testing.T) {
	g := graph.Circulant(24, 3)
	aborts := []struct {
		name  string
		cfg   Config
		proto Protocol
		want  error
	}{
		{"bandwidth", Config{Graph: g, Seed: 2, Bandwidth: 64}, mixProto(5, 13, 2), ErrBandwidthExceeded},
		{"budget", Config{Graph: g, Seed: 2, Adversary: lateBurst{}}, mixProto(5, -1, 0), ErrBudgetExceeded},
		{"round-limit", Config{Graph: g, Seed: 2, MaxRounds: 2}, mixProto(5, -1, 0), ErrRoundLimit},
	}
	forParked(t, func(t *testing.T, e ContextRunner) {
		for _, a := range aborts {
			rc := NewRunContext()
			healthyRun(t, e, rc, g) // warm: every coroutine has run once
			if _, err := e.RunIn(rc, a.cfg, a.proto); !errors.Is(err, a.want) {
				t.Fatalf("%s: err = %v, want %v", a.name, err, a.want)
			}
			checkFresh(t, e, rc, g, a.name)
			rc.Close()
		}
	})
}

// TestParkedPanicThenHealthyRun: a protocol panic escapes the run and kills
// that node's coroutine; the next run in the context replaces it and
// succeeds, identically to a fresh context.
func TestParkedPanicThenHealthyRun(t *testing.T) {
	g := graph.Circulant(24, 3)
	boom := func(rt Runtime) {
		pr := Ports(rt)
		for r := 0; r < 4; r++ {
			if rt.ID() == 7 && r == 2 {
				panic("parked-boom")
			}
			pr.ExchangePorts(pr.OutBuf())
		}
	}
	forParked(t, func(t *testing.T, e ContextRunner) {
		rc := NewRunContext()
		defer rc.Close()
		for rep := 0; rep < 2; rep++ {
			func() {
				defer func() {
					if r := recover(); r != "parked-boom" {
						t.Fatalf("recovered %v, want the protocol's panic", r)
					}
				}()
				e.RunIn(rc, Config{Graph: g, Seed: 1}, boom)
				t.Fatal("protocol panic did not propagate")
			}()
			checkFresh(t, e, rc, g, fmt.Sprintf("after panic %d", rep))
		}
	})
}

// TestParkedRebindBigSmallBig: one context serving graphs of different n and
// degree — shrinking, then growing past the first — reuses its slabs and
// coroutines and matches fresh contexts throughout.
func TestParkedRebindBigSmallBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := graph.Circulant(48, 4)
	small := graph.Cycle(7)
	bigger := graph.RandomRegular(60, 6, rng)
	forParked(t, func(t *testing.T, e ContextRunner) {
		rc := NewRunContext()
		defer rc.Close()
		for _, g := range []*graph.Graph{big, small, bigger, small, big} {
			checkFresh(t, e, rc, g, fmt.Sprintf("n=%d m=%d", g.N(), g.M()))
		}
	})
}

// TestParkedCloseReleasesGoroutines: a context keeps one coroutine per node
// index across runs — also across aborted and panicking ones — and Close,
// Engine.Run's throwaway context, or, for a dropped context, the GC cleanup
// returns the goroutine count to its baseline.
func TestParkedCloseReleasesGoroutines(t *testing.T) {
	g := graph.Circulant(40, 2)
	forParked(t, func(t *testing.T, e ContextRunner) {
		base := runtime.NumGoroutine()
		rc := NewRunContext()
		healthyRun(t, e, rc, g)
		first := append([]*stepNode(nil), rc.park.nodes...)
		e.RunIn(rc, Config{Graph: g, Seed: 1, MaxRounds: 1}, mixProto(3, -1, 0))
		func() {
			defer func() { recover() }()
			e.RunIn(rc, Config{Graph: g, Seed: 1}, func(rt Runtime) {
				if rt.ID() == 3 {
					panic("close-boom")
				}
				rt.Exchange(nil)
			})
		}()
		healthyRun(t, e, rc, g)
		if !slices.Equal(rc.park.nodes, first) || len(first) != g.N() {
			t.Fatalf("parked node set changed across runs: %d nodes, then %d", len(first), len(rc.park.nodes))
		}
		rc.Close()
		waitGoroutines(t, base)

		// Engine.Run closes its throwaway context before returning.
		if _, err := e.(Engine).Run(Config{Graph: g, Seed: 1}, mixProto(3, -1, 0)); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)

		// A context dropped without Close is reclaimed by its GC cleanup.
		healthyRun(t, e, NewRunContext(), g)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("dropped context: goroutine count stuck at %d, want <= %d", runtime.NumGoroutine(), base)
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	})
}

// fixedWord is a payload shared by every node and round, so staticFlood
// itself allocates nothing.
var fixedWord = Msg{1, 2, 3, 4, 5, 6, 7, 8}

// staticFlood sends fixedWord on every port for the given number of rounds
// and sets no output: all of a run's allocations are the engine's.
func staticFlood(rounds int) Protocol {
	return func(rt Runtime) {
		pr := Ports(rt)
		for r := 0; r < rounds; r++ {
			out := pr.OutBuf()
			for p := range out {
				out[p] = fixedWord
			}
			pr.ExchangePorts(out)
		}
	}
}

// TestParkedRunAllocsFlatInN: once warm, a context's per-run allocations do
// not depend on n — there is no per-node allocation left in run setup or
// teardown. The oversubscribed leg (a shard per node) needs a worker and a
// coroutine per node, more goroutines than the race detector allows at
// n=4096, so it is skipped under -race.
func TestParkedRunAllocsFlatInN(t *testing.T) {
	engines := append([]ContextRunner{}, parkedEngines[:3]...)
	if !raceEnabled {
		engines = append(engines, ShardEngine{Shards: 5000})
	}
	for _, e := range engines {
		t.Run(parkedName(e), func(t *testing.T) {
			perRun := func(n int) float64 {
				g := graph.Circulant(n, 2)
				rc := NewRunContext()
				defer rc.Close()
				run := func() {
					if _, err := e.RunIn(rc, Config{Graph: g, Seed: 5}, staticFlood(3)); err != nil {
						t.Fatal(err)
					}
				}
				run()
				return testing.AllocsPerRun(5, run)
			}
			small, large := perRun(1024), perRun(4096)
			if large > small {
				t.Fatalf("per-run allocations grow with n: %.1f at n=1024, %.1f at n=4096", small, large)
			}
		})
	}
}
