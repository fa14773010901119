package congest

import (
	"fmt"
	"slices"
	"sort"

	"mobilecongest/internal/graph"
)

// The flat traffic representation: instead of allocating a fresh
// map[graph.DirEdge]Msg per round, a run precomputes a dense DirEdge -> slot
// layout from the graph once and moves every round's traffic through
// reusable slot-indexed slabs. The map form survives only as the stable
// adversary- and observer-facing view, materialized lazily from a buffer
// when something actually asks for it.

// edgeLayout is the per-run dense indexing of a graph's directed edges, in
// CSR form: the slots of messages leaving node u are the contiguous range
// rowStart[u]..rowStart[u+1], ordered by destination ID (adjacency lists are
// sorted). Slot order is therefore ascending (From, To) — the canonical
// deterministic traffic order shared by both engines and every observer.
type edgeLayout struct {
	g        *graph.Graph
	rowStart []int32         // len n+1; CSR offsets into the slot space
	dirEdges []graph.DirEdge // slot -> directed edge
	undir    []int32         // slot -> index of the undirected edge in g.Edges()
	revSlot  []int32         // slot of (u,v) -> slot of (v,u); delivery fan-in
}

func newEdgeLayout(g *graph.Graph) *edgeLayout {
	l := &edgeLayout{}
	l.build(g)
	return l
}

// build (re)derives the layout for g in place, reusing the arrays' capacity
// when g fits in it.
func (l *edgeLayout) build(g *graph.Graph) {
	n := g.N()
	l.g = g
	l.rowStart = resize(l.rowStart, n+1)
	for u := 0; u < n; u++ {
		l.rowStart[u+1] = l.rowStart[u] + int32(g.Degree(graph.NodeID(u)))
	}
	slots := int(l.rowStart[n])
	l.dirEdges = resize(l.dirEdges, slots)
	l.undir = resize(l.undir, slots)
	l.revSlot = resize(l.revSlot, slots)
	for u := 0; u < n; u++ {
		from := graph.NodeID(u)
		base := l.rowStart[u]
		for j, to := range g.Neighbors(from) {
			s := base + int32(j)
			l.dirEdges[s] = graph.DirEdge{From: from, To: to}
			l.undir[s] = int32(g.EdgeIndex(from, to))
		}
	}
	for s, de := range l.dirEdges {
		l.revSlot[s] = l.slot(de.To, de.From)
	}
}

// degree returns the out-degree (== in-degree) of u in slots.
func (l *edgeLayout) degree(u graph.NodeID) int32 {
	return l.rowStart[u+1] - l.rowStart[u]
}

// slots returns the number of directed-edge slots (2M).
func (l *edgeLayout) slots() int { return len(l.dirEdges) }

// slot returns the dense index of the directed edge from->to, or -1 when the
// pair is not an edge of the graph (including out-of-range endpoints, which
// adversaries are free to inject).
func (l *edgeLayout) slot(from, to graph.NodeID) int32 {
	if int(from) < 0 || int(from) >= l.g.N() {
		return -1
	}
	nbs := l.g.Neighbors(from)
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= to })
	if i == len(nbs) || nbs[i] != to {
		return -1
	}
	return l.rowStart[from] + int32(i)
}

// roundBuffer holds one round's directed traffic as a packed slot-indexed
// slab: refs[s] is the (chunk, offset, length) view of slot s's payload into
// the round's byte arena (see arena.go), zero when the edge is silent. A run
// reuses the buffer across rounds; reset truncates rather than frees, so the
// per-round cost is clearing the touched refs, not reallocating the round.
//
// Two arenas alternate by round parity: delivered inbox slices resolved in
// round r must survive while round r+1 collects (the PortRuntime contract —
// an inbox is valid until the node's next exchange), so round r+1 appends
// into the other arena and only round r+2 truncates round r's bytes.
type roundBuffer struct {
	layout  *edgeLayout
	refs    []msgRef // slot-indexed packed payload views; 0 = silent
	arenas  [2]msgArena
	parity  int     // index of the arena the current round's refs resolve in
	touched []int32 // occupied slots, insertion-ordered until sortTouched
	sorted  bool
	view    Traffic // cached lazy map materialization for this round
}

func newRoundBuffer(l *edgeLayout) *roundBuffer {
	b := &roundBuffer{layout: l}
	b.rebind()
	b.ensureChunks(1)
	return b
}

// rebind fits the buffer to its layout after the layout was rebuilt for
// another graph: the slot slab is resized (reusing its capacity) and the
// previous graph's round is dropped, while the arenas keep their grown
// chunks.
func (b *roundBuffer) rebind() {
	b.refs = resize(b.refs, b.layout.slots())
	b.touched = b.touched[:0]
	b.sorted = true
	b.view = nil
	b.arenas[0].reset()
	b.arenas[1].reset()
}

// reset clears the buffer for reuse: the touched refs are zeroed
// individually (cheaper than wiping the slab), parity flips, and the now
// current arena is truncated — the previous round's arena stays intact for
// inboxes still being read. The cached map view is dropped, never reused:
// the adversary may retain it (materialize copies payloads for the same
// reason).
func (b *roundBuffer) reset() {
	for _, s := range b.touched {
		b.refs[s] = 0
	}
	b.touched = b.touched[:0]
	b.sorted = true
	b.view = nil
	b.parity ^= 1
	b.arenas[b.parity].reset()
}

// ensureChunks sizes both arenas for n concurrent writers (the shard
// engine's shard count; sequential engines use chunk 0).
func (b *roundBuffer) ensureChunks(n int) {
	b.arenas[0].ensure(n)
	b.arenas[1].ensure(n)
}

// get resolves slot s's payload out of the current round's arena: nil when
// the slot is silent. The bytes are arena-backed and valid until the slot's
// receiver next exchanges; callers must not retain or mutate them.
func (b *roundBuffer) get(s int32) Msg {
	return b.arenas[b.parity].get(b.refs[s])
}

// put records the message m on slot s, copying its bytes into the round
// arena's chunk 0 — the sequential-writer form of putChunk. The engine
// writes each slot at most once per round (outboxes are maps, and per-sender
// slot ranges are disjoint), but double writes stay correct: the slot is
// tracked once.
func (b *roundBuffer) put(s int32, m Msg) { b.putChunk(0, s, m) }

// putChunk is put appending into chunk k; distinct chunks may be written
// concurrently (each shard collects into its own).
func (b *roundBuffer) putChunk(k int, s int32, m Msg) {
	if b.refs[s] == 0 {
		b.touched = append(b.touched, s)
		b.sorted = false
	}
	b.refs[s] = b.arenas[b.parity].put(k, m)
}

// len returns the number of messages in the buffer.
func (b *roundBuffer) len() int { return len(b.touched) }

// sortTouched brings the occupied slots into canonical ascending order.
func (b *roundBuffer) sortTouched() {
	if !b.sorted {
		slices.Sort(b.touched)
		b.sorted = true
	}
}

// materialize returns (and caches) the Traffic map view of the buffer — the
// stable adversary-facing representation. Payloads are copied out of the
// round arena into one backing slab: legacy map adversaries may retain the
// map past the round, and arena bytes are rewritten two rounds later.
// Callers must still treat the map as read-only (adversaries return a
// modified clone instead, per the Adversary contract). Off the hot path by
// design — only the map-compat adapter and map observers call it.
func (b *roundBuffer) materialize() Traffic {
	if b.view == nil {
		total := 0
		for _, s := range b.touched {
			total += len(b.get(s))
		}
		slab := make([]byte, 0, total)
		tr := make(Traffic, len(b.touched))
		for _, s := range b.touched {
			m := b.get(s)
			if len(m) == 0 {
				tr[b.layout.dirEdges[s]] = Msg{}
				continue
			}
			start := len(slab)
			slab = append(slab, m...)
			tr[b.layout.dirEdges[s]] = Msg(slab[start:len(slab):len(slab)])
		}
		b.view = tr
	}
	return b.view
}

// loadFrom refills the buffer from a traffic map (the adversary's delivered
// view), validating every entry against the layout. Explicit nil entries are
// normalized to empty messages so slot occupancy mirrors map presence.
func (b *roundBuffer) loadFrom(tr Traffic) error {
	b.reset()
	// The offending edge named in the error must not depend on map order:
	// fold to the smallest invalid edge instead of erroring mid-iteration.
	var badDE graph.DirEdge
	hasBad := false
	for de, m := range tr {
		s := b.layout.slot(de.From, de.To)
		if s < 0 {
			if !hasBad || de.From < badDE.From || (de.From == badDE.From && de.To < badDE.To) {
				badDE, hasBad = de, true
			}
			continue
		}
		if m == nil {
			m = Msg{}
		}
		b.put(s, m)
	}
	if hasBad {
		return fmt.Errorf("congest: adversary injected on non-edge (%d,%d)", badDE.From, badDE.To)
	}
	return nil
}
