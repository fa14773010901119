package congest

import (
	"math/rand"
	"runtime"
	"sort"

	"mobilecongest/internal/graph"
)

// RunContext holds the per-graph simulation state a run builds before its
// first round: the CSR edge layout, the reusable round buffer and the
// adversary-boundary scratch, the node-core slab with its per-node RNGs, the
// port slabs, the internal statistics observer, and — for the step and shard
// engines — one parked node coroutine per node index plus the shard engine's
// worker pool. Rebuilding all of that per run dominates the setup cost of
// short runs; a RunContext lets repeated runs — a Scenario executed in a
// loop, a sweep worker grinding through cells — reuse it instead.
//
// A context binds lazily to the graph of the first run executed in it and
// rebinds whenever a run arrives with a different *graph.Graph. Binding is
// by pointer identity: a run on the very same Graph value reuses the layout
// as is (Scenario and Plan share one Graph per topology), while a rebind
// rebuilds the graph-shaped state inside the capacity it already has, so a
// worker alternating between graphs of similar size stops allocating after
// the largest one. The node coroutines and the shard pool are independent of
// the graph and survive rebinds: a coroutine is created the first time its
// node index is used and serves every later run.
//
// The parked coroutines and pool workers are goroutines. Close stops them;
// a context dropped without Close has them stopped by a GC cleanup once the
// context is unreachable, which a parked goroutine never prevents — between
// runs a node coroutine holds no reference into the context.
//
// A RunContext serves one run at a time; sharing one between concurrent runs
// is a data race. Concurrent callers use one context each (Plan gives every
// worker its own).
type RunContext struct {
	g      *graph.Graph
	layout *edgeLayout
	cur    *roundBuffer
	rt     *RoundTraffic
	cores  []nodeCore
	stats  *StatsObserver
	seeder *rand.Rand
	rngs   []*rand.Rand

	// Port slabs: every node's reusable outbox and inbox are CSR sub-slices
	// of these slot-indexed slabs (node u owns rowStart[u]:rowStart[u+1] of
	// each), so per-round node I/O allocates nothing. inClear lists the
	// in-slab slots the previous delivery occupied, for O(delivered) reuse.
	outSlab []Msg
	inSlab  []Msg
	inClear []int32

	// park holds the goroutines that outlive a run: the node coroutines and
	// the shard worker pool. It is split off the context so the GC cleanup
	// can own it without keeping the context reachable.
	park *parked

	// Shard-engine scratch.
	shardCap     int       // LimitShards cap on the default shard count
	bounds       []int32   // cached shard node boundaries for boundsShards
	boundsShards int       // shard count bounds was computed for; 0 = stale
	shardTouched [][]int32 // per-shard collected-slot lists
	shardErrs    []error   // per-shard first collection error
	shardActive  []int     // per-shard live-node counts
}

// parked is the context's long-lived goroutine state: nodes[i] is the parked
// coroutine of node index i, pool the shard engine's workers.
type parked struct {
	nodes []*stepNode
	pool  *shardPool
}

// close stops every parked coroutine and pool worker. Idempotent; the
// parked set stays usable and refills on the next run.
func (p *parked) close() {
	for _, s := range p.nodes {
		if s.stop != nil { // nil: a protocol panic already killed it
			s.stop()
		}
	}
	p.nodes = nil
	p.pool.close()
	p.pool = nil
}

// NewRunContext returns an empty context; it binds to a graph on first use.
func NewRunContext() *RunContext { return &RunContext{} }

// ContextRunner is implemented by engines that can execute a run inside a
// reusable RunContext. The built-in engines implement it; Engine.Run is
// equivalent to RunIn with a fresh context.
type ContextRunner interface {
	// RunIn executes proto on every node of cfg.Graph, reusing rc's state
	// (rebinding it if cfg.Graph differs from the context's current graph).
	RunIn(rc *RunContext, cfg Config, proto Protocol) (*Result, error)
}

// resize returns s with length n and every element zeroed, reusing the
// backing array when its capacity suffices. The whole old capacity is
// cleared, so a shrunken slab pins nothing of the graph it last held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:cap(s)]
	clear(s)
	return s[:n]
}

// bind points the context at g. A context already bound to g keeps its
// state; otherwise the graph-shaped state is rebuilt in place, inside the
// capacity earlier graphs left behind.
func (rc *RunContext) bind(g *graph.Graph) {
	if rc.g == g {
		return
	}
	rc.g = g
	if rc.layout == nil {
		rc.layout = newEdgeLayout(g)
		rc.cur = newRoundBuffer(rc.layout)
		rc.rt = newRoundTraffic(rc.layout)
	} else {
		rc.layout.build(g)
		rc.cur.rebind()
		rc.rt.rebind(rc.layout)
	}
	rc.cores = resize(rc.cores, g.N())
	rc.outSlab = resize(rc.outSlab, rc.layout.slots())
	rc.inSlab = resize(rc.inSlab, rc.layout.slots())
	rc.inClear = rc.inClear[:0]
	rc.stats = NewStatsObserver() // its congestion scratch is edge-shaped
	rc.boundsShards = 0           // shard boundaries are layout-shaped
	// rc.rngs is deliberately kept: per-node RNGs are graph-independent and
	// re-seeded per run, so they survive rebinding. The parked goroutines and
	// the shard scratch capacities likewise survive.
}

// parkedState returns the context's parked goroutine state, creating it —
// and registering the GC cleanup that stops it — on first use.
func (rc *RunContext) parkedState() *parked {
	if rc.park == nil {
		rc.park = &parked{}
		// The cleanup holds the parked set, never the context, so it cannot
		// pin the context live.
		runtime.AddCleanup(rc, (*parked).close, rc.park)
	}
	return rc.park
}

// Close stops the context's parked node coroutines and shard-pool workers.
// The context stays usable — a later run re-creates what it needs — so Close
// is about reclaiming goroutines promptly when a worker (a Plan.Stream
// worker, a finished sweep) retires its context. Contexts abandoned without
// Close are covered by a GC cleanup, eventually.
func (rc *RunContext) Close() {
	if rc.park != nil {
		rc.park.close()
	}
}

// LimitShards caps the shard count a ShardEngine with the default (automatic,
// GOMAXPROCS) shard count resolves inside this context; n <= 0 removes the
// cap. An explicit ShardEngine.Shards is never capped. Plan.Stream sets this
// on each of its P workers' contexts to GOMAXPROCS/P, so concurrent cells
// divide the machine instead of oversubscribing it P-fold.
func (rc *RunContext) LimitShards(n int) { rc.shardCap = n }

// ensurePool returns the context's pool with exactly `workers` parked
// goroutines, building or resizing it as needed. Zero workers (a
// single-shard run) returns nil — the degenerate pool that runs phases
// inline — and deliberately leaves any existing pool parked for the next
// parallel run.
func (rc *RunContext) ensurePool(workers int) *shardPool {
	if workers <= 0 {
		return nil
	}
	p := rc.parkedState()
	if p.pool == nil || p.pool.size != workers {
		p.pool.close()
		p.pool = newShardPool(workers)
	}
	return p.pool
}

// shardBounds partitions the context's nodes into `shards` contiguous ranges
// of roughly equal slot (directed-edge) count, returning shards+1 node
// boundaries. Balancing by slots rather than nodes keeps a skewed graph (a
// star, a hub-heavy expander) from loading one shard with most of the edge
// work. The boundaries are cached per (layout, shards).
func (rc *RunContext) shardBounds(shards int) []int32 {
	if rc.boundsShards == shards {
		return rc.bounds
	}
	n := rc.g.N()
	total := rc.layout.slots()
	b := rc.bounds[:0]
	b = append(b, 0)
	for k := 1; k < shards; k++ {
		target := int32(total * k / shards)
		u := int32(sort.Search(n, func(u int) bool { return rc.layout.rowStart[u] >= target }))
		if u < b[k-1] {
			u = b[k-1]
		}
		b = append(b, u)
	}
	b = append(b, int32(n))
	rc.bounds, rc.boundsShards = b, shards
	return b
}

// shardScratch sizes and resets the per-shard scratch for a run: the
// collected-slot lists keep their capacities across runs (that is what makes
// shard rounds zero-alloc in a warm context), the error slots clear, and the
// active counts are (re)derived from the current bounds by the caller.
func (rc *RunContext) shardScratch(shards int) (touched [][]int32, errs []error, active []int) {
	for len(rc.shardTouched) < shards {
		rc.shardTouched = append(rc.shardTouched, nil)
	}
	for len(rc.shardErrs) < shards {
		rc.shardErrs = append(rc.shardErrs, nil)
	}
	for len(rc.shardActive) < shards {
		rc.shardActive = append(rc.shardActive, 0)
	}
	touched = rc.shardTouched[:shards]
	errs = rc.shardErrs[:shards]
	active = rc.shardActive[:shards]
	for k := range errs {
		errs[k] = nil
	}
	return touched, errs, active
}

// resetSlabs releases any payload references a previous (possibly aborted)
// run left in the port slabs, so reused contexts leak nothing between runs.
func (rc *RunContext) resetSlabs() {
	clear(rc.outSlab)
	clear(rc.inSlab)
	rc.inClear = rc.inClear[:0]
}

// nodeCores (re)derives the per-node state for a run. Node randomness is
// seeded from seed in node-index order, so every engine — and every run
// reusing this context — hands node i the same RNG stream for the same seed.
// The per-node seeds are drawn eagerly (the seeder stream must not depend on
// which nodes use randomness) but the RNG values themselves are built
// lazily, on the node's first Rand call: a protocol that never draws
// randomness pays nothing for the ~5KB rand source per node — the dominant
// setup allocation at large n. Constructed RNGs are cached in rc.rngs across
// runs (re-seeding on next use resets their state, including the Read
// position).
func (rc *RunContext) nodeCores(cfg Config) []nodeCore {
	if rc.seeder == nil {
		rc.seeder = rand.New(rand.NewSource(cfg.Seed))
	} else {
		rc.seeder.Seed(cfg.Seed)
	}
	for len(rc.rngs) < rc.g.N() {
		rc.rngs = append(rc.rngs, nil)
	}
	for i := range rc.cores {
		var input []byte
		if cfg.Inputs != nil {
			input = cfg.Inputs[i]
		}
		base, end := rc.layout.rowStart[i], rc.layout.rowStart[i+1]
		rc.cores[i] = nodeCore{
			id:        graph.NodeID(i),
			neighbors: rc.g.Neighbors(graph.NodeID(i)),
			rngSeed:   rc.seeder.Int63(),
			rngStore:  rc.rngs,
			input:     input,
			n:         rc.g.N(),
			shared:    cfg.Shared,
			outBuf:    rc.outSlab[base:end:end],
			inBuf:     rc.inSlab[base:end:end],
		}
	}
	return rc.cores
}
