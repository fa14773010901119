package congest

import "runtime"

// ShardEngine executes every phase of a round as a parallel-for over
// contiguous CSR node shards. Nodes are the same parked coroutines the step
// engine drives, but instead of one scheduler goroutine resuming all of
// them, each shard's nodes are stepped by one worker of a persistent pool
// parked on the RunContext, with a barrier between phases:
//
//	compute+collect  — per shard: resume each live node to its exchange
//	                   barrier and fold its outbox into the shard's private
//	                   slice of the collection buffer (disjoint CSR slot
//	                   ranges, so shards never contend)
//	adversary        — sequential on the coordinating goroutine (Intercept,
//	                   budget verdicts, apply), with the settle diff itself
//	                   chunked over the pool when the dirty set is large
//	delivery gather  — per shard: refill the receivers' port inboxes from
//	                   the delivered buffer through revSlot
//
// The phase structure changes scheduling only: shard merge order is shard
// order (== node order), the adversary boundary is untouched, and observers
// run sequentially on the coordinator, so Results, traces, and eavesdropper
// views are byte-identical with the other engines — enforced by the
// cross-engine equivalence suites at several shard counts.
//
// The pool and the node coroutines persist on the RunContext across runs
// and rebinds (sweep cells, repeated Scenario.Run) until RunContext.Close or
// the context's GC cleanup stops them, so a warm run creates no goroutines
// and the fault-free steady state stays zero-alloc per round.
// Pick this engine for large graphs (n ≳ 10⁴) on multi-core hosts; for small
// graphs the per-phase barriers cost more than the parallelism returns and
// the step engine wins.
type ShardEngine struct {
	// Shards is the number of contiguous node shards, which is also the
	// worker parallelism of every phase. 0 (the default) uses GOMAXPROCS,
	// bounded by the RunContext's LimitShards cap; either way the count is
	// clamped to [1, n]. 1 runs the whole round on the coordinator — no pool,
	// no barriers — and is the apples-to-apples baseline for the other
	// engines.
	Shards int
}

// Name implements Engine.
func (ShardEngine) Name() string { return "shard" }

// Run implements Engine.
func (e ShardEngine) Run(cfg Config, proto Protocol) (*Result, error) {
	return e.RunIn(nil, cfg, proto)
}

// shardCount resolves the effective shard count for a run of n nodes.
func (e ShardEngine) shardCount(rc *RunContext, n int) int {
	s := e.Shards
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
		if rc.shardCap > 0 && s > rc.shardCap {
			s = rc.shardCap
		}
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// RunIn implements ContextRunner.
func (e ShardEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (res *Result, err error) {
	if rc == nil {
		rc = NewRunContext()
		defer rc.Close()
	}
	core, err := newRunCore(rc, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { core.runDone(err) }()
	n := core.g.N()

	shards := e.shardCount(rc, n)
	pool := rc.ensurePool(shards - 1)
	core.pool = pool
	bounds := rc.shardBounds(shards)
	// Each shard appends collected payloads into its own arena chunk, so the
	// parallel collection phase never contends on the round arena.
	core.cur.ensureChunks(shards)
	touched, errs, active := rc.shardScratch(shards)
	for k := 0; k < shards; k++ {
		active[k] = int(bounds[k+1] - bounds[k])
	}

	cores := core.newNodeCores()
	nodes := rc.startNodes(cores, proto)
	defer endNodes(nodes)

	sr := &shardRun{
		core:    core,
		nodes:   nodes,
		bounds:  bounds,
		touched: touched,
		errs:    errs,
		active:  active,
		inSlab:  rc.inSlab,
	}
	// Bind the phase method values once: a method value allocates its
	// closure, so binding inside the loop would cost two allocs per round.
	computePhase := sr.computePhase
	gatherPhase := sr.gatherPhase

	nActive := n
	for nActive > 0 {
		if err := core.beginRound(); err != nil {
			return nil, err
		}
		pool.run(computePhase)
		// Merge the shards' slot lists before surfacing an error: the next
		// run's reset clears exactly the merged slots, so a slot collected
		// just before an abort must be on the list.
		nActive = 0
		buf := core.cur
		for k := 0; k < shards; k++ {
			buf.touched = append(buf.touched, touched[k]...)
		}
		for k := 0; k < shards; k++ {
			if errs[k] != nil {
				return nil, errs[k]
			}
			nActive += active[k]
		}
		if nActive == 0 {
			// Every node terminated without exchanging: the round is
			// abandoned before delivery, exactly like the other engines.
			break
		}
		delivered, corrupted, err := core.intercept()
		if err != nil {
			return nil, err
		}
		delivered.sortTouched()
		pool.run(gatherPhase)
		core.deliverRound(delivered, corrupted)
	}

	return core.finish(outputs(cores)), nil
}

// shardRun carries one shard-engine run's phase state so the phase bodies
// are named methods — entry points the shardsafe and hotalloc analyzers see
// — rather than anonymous closures. All slices are shard-indexed or
// CSR-partitioned; each worker k touches only its own slots.
type shardRun struct {
	core    *runCore
	nodes   []*stepNode
	bounds  []int32
	touched [][]int32
	errs    []error
	active  []int
	inSlab  []Msg
}

// computePhase steps shard k's live nodes to their next exchange (or to
// termination) and collects their outboxes. Within a shard, node order is
// ascending and ports are ascending, so the shard's slot list comes out
// sorted; shard slot ranges are themselves ascending, so the coordinator's
// merge in shard order rebuilds the canonical global order without a sort.
// The first collection error aborts the shard, leaving its remaining
// nodes un-stepped — the same nodes the step engine would not have
// reached; the coordinator surfaces the lowest shard's error, which is
// the lowest node's, matching the sequential engines.
//
//mobilevet:hotpath
func (sr *shardRun) computePhase(k int) {
	tl := sr.touched[k][:0]
	stepped := sr.active[k]
	for u := sr.bounds[k]; u < sr.bounds[k+1]; u++ {
		s := sr.nodes[u]
		if s.done {
			continue
		}
		s.next()
		if s.done {
			stepped--
			continue
		}
		if err := sr.core.collectShard(s.nodeCore, k, &tl); err != nil {
			sr.errs[k] = err
			break
		}
	}
	sr.touched[k] = tl
	sr.active[k] = stepped
}

// gatherPhase is the delivery fan-in for shard k's receivers: for every
// in-slot of the shard's node range, mirror the delivered buffer through
// revSlot. Unlike the sequential engines' O(delivered) inClear walk this
// rewrites the whole range — silent edges are re-nilled rather than
// remembered — trading O(slots/shards) writes for having no shared
// clear-list to contend on. inClear stays empty for the whole run.
//
//mobilevet:hotpath
func (sr *shardRun) gatherPhase(k int) {
	layout, buf := sr.core.layout, sr.core.cur
	lo, hi := layout.rowStart[sr.bounds[k]], layout.rowStart[sr.bounds[k+1]]
	rev := layout.revSlot
	for rs := lo; rs < hi; rs++ {
		// Resolving a packed ref may read another shard's chunk — safe:
		// collection finished at the phase barrier, nothing writes now.
		sr.inSlab[rs] = buf.get(rev[rs])
	}
}

// collectShard is collectOutbox for the shard engine: identical validation
// and slot math, but slot occupancy is recorded in the shard's private list
// instead of the shared buffer's, and payloads are copied into the shard's
// own arena chunk, so shards collect concurrently into their disjoint CSR
// slot ranges without contending on the arena. The caller merges the
// per-shard lists in shard order, which keeps the buffer's canonical
// ascending slot order without a sort.
func (c *runCore) collectShard(nc *nodeCore, k int, touched *[]int32) error {
	out := nc.outPending
	nc.outPending = nil
	if nc.badSend {
		return badSendError(nc)
	}
	base := c.layout.rowStart[nc.id]
	if len(out) > int(c.layout.degree(nc.id)) {
		return badDegreeError(c, nc, out)
	}
	refs, arena := c.cur.refs, &c.cur.arenas[c.cur.parity]
	for p, m := range out {
		if m == nil {
			continue
		}
		if c.bwBits > 0 && len(m)*8 > c.bwBits {
			return badBandwidthError(c, nc, p, m)
		}
		s := base + int32(p)
		if refs[s] == 0 {
			*touched = append(*touched, s)
		}
		refs[s] = arena.put(k, m)
		out[p] = nil
	}
	return nil
}
