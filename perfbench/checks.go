package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"

	mc "mobilecongest"
)

// Output checks. None of them runs engine code: FloodMax is recomputed from
// the adjacency lists, sweep records are checked against counts derived
// from the graph, and compiled outputs against the uncompiled payload.

// floodMaxOracle returns every node's FloodMax output after r rounds: r
// synchronous passes in which each node takes the maximum ID over itself
// and its neighbours.
func floodMaxOracle(g *mc.Graph, r int) []uint64 {
	cur := make([]uint64, g.N())
	for u := range cur {
		cur[u] = uint64(u)
	}
	next := make([]uint64, g.N())
	for ; r > 0; r-- {
		for u := range cur {
			best := cur[u]
			for _, v := range g.Neighbors(mc.NodeID(u)) {
				best = max(best, cur[v])
			}
			next[u] = best
		}
		cur, next = next, cur
	}
	return cur
}

// compareOutputs reports the first node whose output differs from want.
func compareOutputs(got []any, want []uint64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, want %d", len(got), len(want))
	}
	for u, v := range got {
		if x, ok := v.(uint64); !ok || x != want[u] {
			return fmt.Sprintf("node %d output %v, want %d", u, v, want[u])
		}
	}
	return ""
}

// uintOutputs converts a run's outputs, which must all be uint64.
func uintOutputs(outs []any) ([]uint64, error) {
	res := make([]uint64, len(outs))
	for u, v := range outs {
		x, ok := v.(uint64)
		if !ok {
			return nil, fmt.Errorf("node %d output %T, want uint64", u, v)
		}
		res[u] = x
	}
	return res, nil
}

// runDigest fingerprints a run's statistics and outputs, for comparing a
// traced run with the untraced run of the same operation.
func runDigest(res *mc.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", res.Stats)
	var b [8]byte
	for _, v := range res.Outputs {
		if x, ok := v.(uint64); ok {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		} else {
			fmt.Fprintf(h, "|%v", v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordKey is a record's JSON encoding without its wall-clock time: two
// runs of one cell must agree on it exactly.
func recordKey(r mc.Record) string {
	r.ElapsedMS = 0
	b, _ := json.Marshal(r)
	return string(b)
}

// checkSweepRecord checks a FloodMax or Broadcast sweep record against
// counts that follow from the graph alone: both protocols send one 8-byte
// message on every port in each of their p rounds, flips and eavesdropping
// neither drop nor add messages, and only the flipping adversary touches
// edges, at most f per round.
func checkSweepRecord(r mc.Record, edges int) string {
	want := 2 * edges * r.P
	switch {
	case r.Error != "":
		return "record error: " + r.Error
	case r.Rounds != r.P:
		return fmt.Sprintf("%s: %d rounds, want %d", r.Name, r.Rounds, r.P)
	case r.Messages != want:
		return fmt.Sprintf("%s: %d messages, want %d", r.Name, r.Messages, want)
	case r.Bytes != 8*want || r.MaxMsgBytes != 8:
		return fmt.Sprintf("%s: %d bytes (max %d), want %d (max 8)", r.Name, r.Bytes, r.MaxMsgBytes, 8*want)
	case r.Adversary == "flip" && (r.CorruptedEdgeRounds < 1 || r.CorruptedEdgeRounds > r.F*r.P):
		return fmt.Sprintf("%s: %d corrupted edge-rounds, want 1..%d", r.Name, r.CorruptedEdgeRounds, r.F*r.P)
	case r.Adversary != "flip" && r.CorruptedEdgeRounds != 0:
		return fmt.Sprintf("%s: %d corrupted edge-rounds under %s", r.Name, r.CorruptedEdgeRounds, r.Adversary)
	}
	return ""
}
