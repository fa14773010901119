package resilient_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	mc "mobilecongest"
	"mobilecongest/internal/algorithms"
	"mobilecongest/internal/congest"
	"mobilecongest/internal/resilient"
)

// wireDigest hashes everything a run puts on the wire: every delivered
// (directed edge, payload) pair and every corrupted edge, round by round,
// then the final Stats and Outputs. Two runs share a digest only if every
// byte each node sent (after the adversary) is identical.
type wireDigest struct {
	h hash.Hash
}

func newWireDigest() *wireDigest { return &wireDigest{h: sha256.New()} }

func (d *wireDigest) RoundStart(int) {}

func (d *wireDigest) RoundDelivered(round int, v *congest.RoundView) {
	var w [8]byte
	put := func(x int) {
		binary.BigEndian.PutUint64(w[:], uint64(x))
		d.h.Write(w[:])
	}
	put(round)
	for e, m := range v.All() {
		put(int(e.From))
		put(int(e.To))
		put(len(m))
		d.h.Write(m)
	}
	for _, e := range v.Corrupted() {
		put(int(e.U))
		put(int(e.V))
	}
}

func (d *wireDigest) RunDone(congest.Stats, error) {}

func (d *wireDigest) sum(res *mc.Result) string {
	fmt.Fprintf(d.h, "%+v|%v", res.Stats, res.Outputs)
	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

// TestCompilerWireBytesPinned pins the byzantine compiler's exact wire
// traffic: hardened-clique on clique32 at F=4 under flip and busiest at two
// seeds, plus one L0Mode cell. The constants were computed before the
// compiler's hot path (Reed-Solomon interpolation, sketch merges, rsim
// frames) was rewritten for speed; a rewrite that changes any byte a node
// sends, or any output or statistic, fails here even when the outputs stay
// correct.
func TestCompilerWireBytesPinned(t *testing.T) {
	g, err := mc.BuildTopology("clique", 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		adv  string
		seed int64
		want string
	}{
		{"flip", 1, "6e62800896d4e237"},
		{"flip", 2, "e93ec2a509fb5874"},
		{"busiest", 1, "b1d196d5c6a7e53c"},
		{"busiest", 2, "a8c0b38a695ddbf6"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("hardened-clique/%s/seed%d", c.adv, c.seed), func(t *testing.T) {
			t.Parallel()
			proto, shared, err := mc.BuildProtocol("hardened-clique", g, mc.ProtoParams{Seed: c.seed, F: 4})
			if err != nil {
				t.Fatal(err)
			}
			adv, err := mc.BuildAdversary(c.adv, g, 4, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			d := newWireDigest()
			res, err := mc.NewScenario(mc.WithGraph(g), mc.WithProtocol(proto), mc.WithShared(shared),
				mc.WithAdversary(adv), mc.WithSeed(c.seed), mc.WithObserver(d)).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := d.sum(res); got != c.want {
				t.Fatalf("wire digest %s, want %s", got, c.want)
			}
		})
	}
	t.Run("l0mode", func(t *testing.T) {
		t.Parallel()
		const n, f = 12, 1
		g, err := mc.BuildTopology("clique", n, 0)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := mc.BuildAdversary("flip", g, f, 7)
		if err != nil {
			t.Fatal(err)
		}
		proto := resilient.Compile(algorithms.FloodMax(2), resilient.Config{Mode: resilient.L0Mode, F: f, Rep: 5, Samplers: 6, Iterations: 4})
		d := newWireDigest()
		res, err := mc.NewScenario(mc.WithGraph(g), mc.WithProtocol(proto), mc.WithShared(resilient.CliqueShared(n)),
			mc.WithAdversary(adv), mc.WithSeed(7), mc.WithObserver(d)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.sum(res), "22e511c9ced0c1fe"; got != want {
			t.Fatalf("wire digest %s, want %s", got, want)
		}
	})
}
