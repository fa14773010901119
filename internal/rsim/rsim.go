// Package rsim realizes the contract of the Rajagopalan-Schulman compilers
// (Theorem 3.2) and the parallel scheduler of Lemma 3.3 for the tree
// protocols the paper actually compiles: pipelined broadcast down a rooted
// tree and merge-convergecast up it.
//
// Substitution (recorded in DESIGN.md): instead of tree codes, values
// propagate under *commit-threshold* forwarding. A node adopts a value for
// a tree only after receiving Rep identical copies of it from the relevant
// neighbour, then retransmits it every remaining round. Corrupting an edge
// therefore either (i) delays the commit by one round per corruption, or
// (ii) requires forging Rep identical copies — i.e. controlling the edge
// outright. With window T = 2*Rep*(depth+1), a tree fails only if the
// adversary spends about T corruptions on it (mirroring Theorem 3.2's
// constant-fraction-of-communication threshold), so an f-mobile adversary
// breaks O(f * eta) of k parallel trees — the Lemma 3.3 guarantee.
//
// All k trees run concurrently: each physical round, every graph edge
// carries one frame containing that edge's message for every tree using it,
// which is exactly the load-eta scheduling of Lemma 3.3 (an adversary
// corrupting the edge corrupts all eta trees on it, as in the paper).
//
// A frame is a run of [tree id u16][length u16][payload] sections, so one
// tree's payload is at most MaxSectionBytes. Each node builds its frames in
// one buffer per port that it reuses every round; that relies on
// ExchangePorts copying every sent payload into the round arena before it
// returns. Receivers scan a frame for their tree's section in place, and a
// commit copies a value only the first time it is seen.
package rsim

import (
	"bytes"
	"fmt"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// TreeView is one node's local knowledge of one tree in the packing: its
// parent, children, and depth. Absent nodes (weak packings) have Depth < 0.
type TreeView struct {
	// Index identifies the tree within the packing.
	Index int
	// Parent is the tree parent (-1 for the root or absent nodes).
	Parent graph.NodeID
	// Children are the tree children.
	Children []graph.NodeID
	// Depth is this node's distance from the root (-1 if absent).
	Depth int
}

// Views computes every node's TreeView list for a packing — the "distributed
// knowledge" artifact handed to nodes as trusted preprocessing. Broken trees
// (cycles, dangling parents) yield Depth -1 views, which the protocols treat
// as absent; such trees simply fail, which weak packings budget for.
func Views(p *treepack.Packing) [][]TreeView {
	n := 0
	if len(p.Trees) > 0 {
		n = len(p.Trees[0].Parent)
	}
	views := make([][]TreeView, n)
	for v := 0; v < n; v++ {
		views[v] = make([]TreeView, len(p.Trees))
	}
	for j, t := range p.Trees {
		children := t.Children()
		depth := depths(t)
		for v := 0; v < n; v++ {
			views[v][j] = TreeView{
				Index:    j,
				Parent:   t.Parent[v],
				Children: children[v],
				Depth:    depth[v],
			}
			if graph.NodeID(v) == t.Root {
				views[v][j].Parent = -1
			}
		}
	}
	return views
}

// depths returns per-node depth or -1 (absent/broken).
func depths(t *treepack.Tree) []int {
	n := len(t.Parent)
	d := make([]int, n)
	for v := range d {
		d[v] = -1
	}
	for v := 0; v < n; v++ {
		if t.Parent[v] < 0 {
			continue
		}
		steps := 0
		u := graph.NodeID(v)
		for u != t.Root && steps <= n {
			p := t.Parent[u]
			if p < 0 || int(p) >= n {
				steps = n + 1
				break
			}
			u = p
			steps++
		}
		if steps <= n && u == t.Root {
			d[v] = steps
		}
	}
	return d
}

// MaxDepth returns the largest depth over all views (absent views ignored),
// which all nodes can compute from the shared packing.
func MaxDepth(views [][]TreeView) int {
	max := 0
	for _, nodeViews := range views {
		for _, v := range nodeViews {
			if v.Depth > max {
				max = v.Depth
			}
		}
	}
	return max
}

// Rounds returns the physical round count used by BroadcastDown and
// ConvergecastUp with the given depth bound and repetition: the pipeline
// needs rep*(depth+1) rounds to commit level by level, doubled for delay
// slack against corruption.
func Rounds(depthBound, rep int) int { return 2 * rep * (depthBound + 1) }

// MaxSectionBytes is the largest per-tree payload one frame section carries:
// the section length is a 16-bit field.
const MaxSectionBytes = 1<<16 - 1

func appendSection(dst []byte, treeID int, payload []byte) []byte {
	if len(payload) > MaxSectionBytes {
		panic(fmt.Sprintf("rsim: %d-byte tree payload exceeds the %d-byte frame section limit", len(payload), MaxSectionBytes))
	}
	dst = append(dst, byte(treeID>>8), byte(treeID))
	dst = append(dst, byte(len(payload)>>8), byte(len(payload)))
	return append(dst, payload...)
}

// section returns tree treeID's payload in frame m: the last well-formed
// section carrying that id. Scanning stops at a truncated (corrupted) tail,
// so a section cut short is dropped.
func section(m congest.Msg, treeID int) (sec []byte, ok bool) {
	for i := 0; i+4 <= len(m); {
		id := int(m[i])<<8 | int(m[i+1])
		l := int(m[i+2])<<8 | int(m[i+3])
		i += 4
		if i+l > len(m) {
			break
		}
		if id == treeID {
			sec, ok = m[i:i+l], true
		}
		i += l
	}
	return sec, ok
}

// frames holds one node's outgoing frame per port, reused round after round
// (see the package doc for why that is safe).
type frames [][]byte

func (f frames) add(port, treeID int, payload []byte) {
	f[port] = appendSection(f[port], treeID, payload)
}

// flush moves the round's non-empty frames into out (ports without a
// section stay silent) and truncates the buffers for the next round.
func (f frames) flush(out []congest.Msg) {
	for p, fr := range f {
		if len(fr) > 0 {
			out[p] = fr
			f[p] = fr[:0]
		}
	}
}

// committer tracks copies of candidate values on one (tree, neighbour)
// stream and commits at the threshold.
type committer struct {
	seen      []candidate
	threshold int
	value     []byte
	done      bool
}

// candidate is one distinct value offered to a committer and its copy count.
type candidate struct {
	v []byte
	n int
}

// Offer records one received copy and reports whether the stream has
// committed. It copies v only when v is a value not offered before.
func (c *committer) Offer(v []byte) bool {
	if c.done {
		return true
	}
	i := 0
	for i < len(c.seen) && !bytes.Equal(c.seen[i].v, v) {
		i++
	}
	if i == len(c.seen) {
		c.seen = append(c.seen, candidate{v: append([]byte{}, v...)})
	}
	c.seen[i].n++
	if c.seen[i].n >= c.threshold {
		c.value = c.seen[i].v
		c.done = true
	}
	return c.done
}

// BroadcastDown floods a per-tree payload from each tree's root to all its
// nodes: payloads[j] must be set at the root of tree j (nil elsewhere).
// Runs Rounds(depthBound, rep) physical rounds and returns this node's
// received payload per tree (nil when the tree never committed — a failed
// tree). Every participating node must call it at the same round with the
// same depthBound and rep.
func BroadcastDown(rt congest.Runtime, trees []TreeView, payloads [][]byte, depthBound, rep int) [][]byte {
	pr := congest.Ports(rt)
	have := make([][]byte, len(trees))
	commits := make([]committer, len(trees))
	for j := range trees {
		if trees[j].Depth == 0 { // root
			have[j] = payloads[j]
		}
		commits[j].threshold = rep
	}
	fr := make(frames, pr.Degree())
	total := Rounds(depthBound, rep)
	for r := 0; r < total; r++ {
		for j, tv := range trees {
			if tv.Depth < 0 || have[j] == nil {
				continue
			}
			for _, c := range tv.Children {
				if p := pr.Port(c); p >= 0 {
					fr.add(p, j, have[j])
				}
			}
		}
		out := pr.OutBuf()
		fr.flush(out)
		in := pr.ExchangePorts(out)
		for j, tv := range trees {
			if tv.Depth <= 0 || tv.Parent < 0 || have[j] != nil {
				continue
			}
			if p := pr.Port(tv.Parent); p >= 0 && in[p] != nil {
				if sec, ok := section(in[p], j); ok && commits[j].Offer(sec) {
					have[j] = commits[j].value
				}
			}
		}
	}
	return have
}

// MergeFn combines two encoded aggregates of one tree.
type MergeFn func(a, b []byte) []byte

// ConvergecastUp aggregates per-tree local values to each tree's root:
// locals[j] is this node's contribution to tree j. A node transmits its
// subtree aggregate — its local folded with every child's committed
// aggregate — only once all children have committed, so retransmissions are
// identical and the parent's commit threshold applies. Returns, at each
// tree's root, the tree aggregate (nil elsewhere or on failure). Must be
// called in lock-step by all nodes with equal depthBound and rep.
func ConvergecastUp(rt congest.Runtime, trees []TreeView, locals [][]byte, merge MergeFn, depthBound, rep int) [][]byte {
	pr := congest.Ports(rt)
	// commits[j][i] follows tree j's i-th child.
	commits := make([][]committer, len(trees))
	ready := make([][]byte, len(trees)) // my complete subtree aggregate
	for j, tv := range trees {
		if tv.Depth < 0 {
			continue
		}
		if len(tv.Children) == 0 {
			ready[j] = locals[j]
		}
		commits[j] = make([]committer, len(tv.Children))
		for i := range commits[j] {
			commits[j][i].threshold = rep
		}
	}
	fr := make(frames, pr.Degree())
	total := Rounds(depthBound, rep)
	for r := 0; r < total; r++ {
		for j, tv := range trees {
			if tv.Depth <= 0 || tv.Parent < 0 || ready[j] == nil {
				continue
			}
			if p := pr.Port(tv.Parent); p >= 0 {
				fr.add(p, j, ready[j])
			}
		}
		out := pr.OutBuf()
		fr.flush(out)
		in := pr.ExchangePorts(out)
		for j, tv := range trees {
			if tv.Depth < 0 || ready[j] != nil {
				continue
			}
			allDone := true
			for i, c := range tv.Children {
				cm := &commits[j][i]
				if cm.done {
					continue
				}
				if p := pr.Port(c); p >= 0 && in[p] != nil {
					if sec, ok := section(in[p], j); ok {
						cm.Offer(sec)
					}
				}
				if !cm.done {
					allDone = false
				}
			}
			if allDone {
				acc := locals[j]
				for i := range tv.Children {
					acc = merge(acc, commits[j][i].value)
				}
				ready[j] = acc
			}
		}
	}
	res := make([][]byte, len(trees))
	for j, tv := range trees {
		if tv.Depth == 0 {
			res[j] = ready[j]
		}
	}
	return res
}
