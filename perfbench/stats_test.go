package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	mc "mobilecongest"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	if got := tailOf(seq(10)); got.OK {
		t.Fatalf("10 samples gave a tail %+v; none has 10 samples beyond it", got)
	}
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		got := tailOf(seq(tc.n))
		if !got.OK || got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v", tc.n, got, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "congest.round", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "congest.round", Start: 20, End: 50}, // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "congest.gap", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 3, Name: "adversary.intercept", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestAccountingFlagsUncoveredRoots(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.run", Run: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mobilecongest.scenario.run", Run: "a", Start: 5, End: 100}, // 5% uncovered
		{ID: 3, Name: "bench.run", Run: "b", Start: 200, End: 300},
		{ID: 4, Parent: 3, Name: "congest.round", Run: "b", Start: 200, End: 280}, // 20% uncovered
	}
	layers, over := accounting(spans)
	if len(over) != 1 || !strings.Contains(over[0], " b:") {
		t.Fatalf("over the slack: %q, want only run b", over)
	}
	for layer, want := range map[string]float64{"perfbench": 25e-6, "mobilecongest": 95e-6, "internal/congest": 80e-6} {
		if math.Abs(layers[layer]-want) > 1e-12 {
			t.Errorf("%s self time %v ms, want %v", layer, layers[layer], want)
		}
	}
}

func TestTallyCountsEachOperationOnce(t *testing.T) {
	var tl tally
	tl.op()
	tl.op("record error", "output mismatch") // two problems, one failed operation
	tl.op()
	tl.fail("status 429")
	if tl.attempted != 4 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", tl.attempted, tl.failed)
	}
	if got := tl.errorRate(); got != 0.5 {
		t.Errorf("error rate %v, want 0.5", got)
	}
	if got := (&tally{}).errorRate(); got != 1 {
		t.Errorf("error rate with nothing attempted is %v, want 1 (nothing succeeded)", got)
	}
	var o tally
	o.op("x")
	tl.merge(&o)
	if tl.attempted != 5 || tl.failed != 3 || len(tl.reasons) != 4 {
		t.Errorf("after merge: %+v", tl)
	}
}

// Each chain step replays every cell of the one before and adds one fresh
// cell per (protocol, n), so half of a chain's served cells are replays.
func TestChainStepsReplayHalf(t *testing.T) {
	for ch := 0; ch < 16; ch++ {
		hits, served := 0, 0
		prev := mc.PlanSpec{}
		for step := 0; step < chainSteps; step++ {
			sp := chainSpec(42, ch, step)
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			if step > 0 {
				if fresh := len(servedNs) * len(servedProtocols); sp.Cells() != prev.Cells()+fresh {
					t.Fatalf("chain %d step %d: %d cells after %d, want %d fresh", ch, step, sp.Cells(), prev.Cells(), fresh)
				}
				if sp.BaseSeed != prev.BaseSeed || sp.Reps != prev.Reps+1 || sp.Adversaries[0] != prev.Adversaries[0] {
					t.Fatalf("chain %d step %d does not extend step %d: %+v vs %+v", ch, step, step-1, sp, prev)
				}
				hits += prev.Cells()
			}
			served += sp.Cells()
			prev = sp
		}
		if hits != 18 || served != 36 || ratio(float64(hits), float64(served)) != 0.5 {
			t.Errorf("chain %d: %d of %d cells replayed, want 18 of 36", ch, hits, served)
		}
	}
}

func TestFloodMaxOracle(t *testing.T) {
	g, err := mc.BuildTopology("path", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		r    int
		want []uint64
	}{{0, []uint64{0, 1, 2, 3, 4}}, {1, []uint64{1, 2, 3, 4, 4}}, {2, []uint64{2, 3, 4, 4, 4}}, {4, []uint64{4, 4, 4, 4, 4}}} {
		if got := floodMaxOracle(g, tc.r); !slices.Equal(got, tc.want) {
			t.Errorf("r=%d: %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestCheckSweepRecord(t *testing.T) {
	ok := mc.Record{Name: "c", Adversary: "flip", F: 2, P: 2, Rounds: 2, Messages: 40, Bytes: 320, MaxMsgBytes: 8, CorruptedEdgeRounds: 4}
	if p := checkSweepRecord(ok, 10); p != "" {
		t.Fatalf("valid record rejected: %s", p)
	}
	for name, mut := range map[string]func(*mc.Record){
		"messages":  func(r *mc.Record) { r.Messages-- },
		"rounds":    func(r *mc.Record) { r.Rounds = 1 },
		"bytes":     func(r *mc.Record) { r.Bytes++ },
		"corrupted": func(r *mc.Record) { r.CorruptedEdgeRounds = 5 },
		"untouched": func(r *mc.Record) { r.Adversary = "eavesdrop" },
		"error":     func(r *mc.Record) { r.Error = "boom" },
	} {
		r := ok
		mut(&r)
		if checkSweepRecord(r, 10) == "" {
			t.Errorf("%s: bad record accepted", name)
		}
	}
}

func TestScale(t *testing.T) {
	// At the nominal index a CPU time is reported as it is; on a host twice
	// as slow (twice the index) it is halved.
	if got := scale(100, speedNominal, speedNominal); got != 100 {
		t.Errorf("scale at nominal speed = %v, want 100", got)
	}
	if got := scale(100, speedNominal, 3*speedNominal); got != 50 {
		t.Errorf("scale at half speed = %v, want 50", got)
	}
}
