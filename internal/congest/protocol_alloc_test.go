package congest_test

import (
	"testing"

	mc "mobilecongest"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

// TestRegistryProtocolsZeroAllocPerRound is the protocol-inclusive twin of
// TestPortNativeFaultFreeZeroAllocPerRound: the registered word-sized
// protocols, not a test protocol, on a warm reused context, each on a
// topology it accepts (colorring needs a cycle). A run with the protocol's
// round parameter at 8 must allocate no more than one at 4 — neither the
// engine nor the protocol's own message encoding allocates per round.
func TestRegistryProtocolsZeroAllocPerRound(t *testing.T) {
	circulant, cycle := graph.Circulant(24, 3), graph.Cycle(24)
	engines := []congest.ContextRunner{congest.StepEngine{}, congest.ShardEngine{Shards: 3}}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"floodmax", circulant},
		{"broadcast", circulant},
		{"bfs", circulant},
		{"sumtoroot", circulant},
		{"tokenring", circulant},
		{"colorring", cycle},
	} {
		name, g := c.name, c.g
		for _, e := range engines {
			t.Run(name+"/"+e.(congest.Engine).Name(), func(t *testing.T) {
				rc := congest.NewRunContext()
				defer rc.Close()
				measure := func(rounds int) float64 {
					proto, shared, err := mc.BuildProtocol(name, g, mc.ProtoParams{Rounds: rounds, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					cfg := congest.Config{Graph: g, Seed: 3, Shared: shared}
					run := func() {
						if _, err := e.RunIn(rc, cfg, proto); err != nil {
							t.Fatal(err)
						}
					}
					run() // warm the context's slabs, arenas, and coroutines
					return testing.AllocsPerRun(10, run)
				}
				base, double := measure(4), measure(8)
				if double > base {
					t.Fatalf("per-round allocation in %s: %.1f allocs at 4 rounds, %.1f at 8", name, base, double)
				}
			})
		}
	}
}
