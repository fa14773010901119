package congest

import (
	"iter"

	"mobilecongest/internal/graph"
)

// StepEngine runs every node as a resumable step function driven by a single
// scheduler goroutine. Each node is a coroutine (iter.Pull) parked on the
// RunContext: ExchangePorts parks the node by yielding its pending outbox and
// resumes with the node's port inbox filled in. Compared to GoroutineEngine
// this removes the two channel handoffs and the scheduler wakeup per node per
// round — the coroutine switch is a direct handoff — and because the
// coroutines outlive the run, a reused context pays for them once, not per
// run. Semantics are identical: nodes still interact only at the exchange
// barrier, so any protocol that is deterministic under GoroutineEngine
// produces a byte-identical Result here.
type StepEngine struct{}

// Name implements Engine.
func (StepEngine) Name() string { return "step" }

// stepNode is one node coroutine of the step and shard engines, parked on a
// RunContext and reused by every run in it. Its coroutine loops forever: run
// the current protocol, mark the node done, park until the next run. For the
// length of a run it points at the run's nodeCore (where the pending outbox
// and the port inbox live, so the scheduler reads and writes them between
// resumptions) and at the run's protocol; endNodes clears both, so a parked
// coroutine references nothing of the run or the context.
type stepNode struct {
	*nodeCore
	proto Protocol

	yield   func(struct{}) bool
	next    func() (struct{}, bool) // nil: no live coroutine; startNodes makes one
	stop    func()
	done    bool // the protocol returned or was unwound this run
	inProto bool // the coroutine is inside the protocol (started, not finished)
	abort   bool // the run is unwinding: ExchangePorts panics abortSignal
}

var _ PortRuntime = (*stepNode)(nil)

// loop is the coroutine body: one protocol execution per resumption cycle.
// It returns only when Close (or the GC cleanup) stops the parked coroutine,
// or — by panic — when a protocol panics, which kills the coroutine; the
// engine then replaces it on the next run.
func (s *stepNode) loop(yield func(struct{}) bool) {
	s.yield = yield
	for {
		s.runProtocol()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProtocol runs the node's protocol to completion or to an abort unwind.
// Any other panic escapes with inProto still set, which tells endNodes the
// coroutine died.
func (s *stepNode) runProtocol() {
	s.inProto = true
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				panic(r)
			}
		}
		s.inProto = false
		s.done = true
	}()
	s.proto(s)
}

// ExchangePorts implements the round barrier by parking the coroutine.
//
//mobilevet:hotpath
func (s *stepNode) ExchangePorts(out []Msg) []Msg {
	s.outPending = out
	// The engine resumes a parked node with abort set when the run ends
	// early; yield returns false if the coroutine is stopped mid-protocol.
	// Either way, unwind the protocol exactly like the goroutine engine does.
	if !s.yield(struct{}{}) || s.abort {
		panic(abortSignal{})
	}
	s.round++
	return s.inBuf
}

// Exchange is the legacy map barrier, a compat wrapper over the port path:
// the outbox folds into the port outbox up front and the inbox map is
// materialized lazily, only for the nodes and rounds that use this form.
func (s *stepNode) Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg {
	return s.portsToMapIn(s.ExchangePorts(s.mapOutToPorts(out)))
}

// startNodes hands the run's protocol to the context's parked coroutines,
// one per node of cores, creating a coroutine for every node index not yet
// seen (or whose coroutine a protocol panic killed). The returned slice is
// the context's own; the caller must pass it to endNodes on every exit path.
func (rc *RunContext) startNodes(cores []nodeCore, proto Protocol) []*stepNode {
	p := rc.parkedState()
	for len(p.nodes) < len(cores) {
		p.nodes = append(p.nodes, &stepNode{})
	}
	nodes := p.nodes[:len(cores)]
	for i, s := range nodes {
		if s.next == nil {
			s.next, s.stop = iter.Pull(s.loop)
		}
		s.nodeCore, s.proto = &cores[i], proto
		s.done, s.abort = false, false
	}
	return nodes
}

// endNodes closes a run: every node still inside its protocol — the run
// aborted on an error, a budget verdict, the round limit, or a panic — is
// resumed with abort set so its protocol unwinds through abortSignal and
// the coroutine parks again. A coroutine a protocol panic killed is
// dropped, to be replaced by startNodes. Nodes that already finished are
// not touched. Finally every node lets go of the run's core and protocol.
func endNodes(nodes []*stepNode) {
	for _, s := range nodes {
		if s.inProto {
			s.abort = true
			for s.inProto {
				if _, alive := s.next(); !alive {
					s.next, s.stop, s.inProto = nil, nil, false
				}
			}
		}
		s.nodeCore, s.proto = nil, nil
	}
}

// Run implements Engine.
func (e StepEngine) Run(cfg Config, proto Protocol) (*Result, error) {
	return e.RunIn(nil, cfg, proto)
}

// RunIn implements ContextRunner: it executes the run inside rc, reusing the
// context's layout, buffers, node cores, RNGs, and parked node coroutines
// (nil rc runs in a fresh context that is closed before RunIn returns).
func (StepEngine) RunIn(rc *RunContext, cfg Config, proto Protocol) (res *Result, err error) {
	if rc == nil {
		rc = NewRunContext()
		defer rc.Close()
	}
	core, err := newRunCore(rc, cfg)
	if err != nil {
		return nil, err
	}
	defer func() { core.runDone(err) }()
	cores := core.newNodeCores()
	nodes := rc.startNodes(cores, proto)
	defer endNodes(nodes)

	nActive := len(nodes)
	for nActive > 0 {
		if err := core.beginRound(); err != nil {
			return nil, err
		}
		nActive, err = core.stepRound(nodes, nActive)
		if err != nil {
			return nil, err
		}
		if nActive == 0 {
			break
		}
		if err := core.endRound(); err != nil {
			return nil, err
		}
	}

	return core.finish(outputs(cores)), nil
}

// stepRound is the step engine's compute+collect phase: step each node to its
// next exchange (parking its outbox) or to termination — same node order as
// the goroutine engine's collection loop, so the collection buffer fills in
// ascending slot order. Returns the updated live-node count.
//
//mobilevet:hotpath
func (c *runCore) stepRound(nodes []*stepNode, nActive int) (int, error) {
	for _, s := range nodes {
		if s.done {
			continue
		}
		s.next()
		if s.done {
			nActive--
			continue
		}
		if err := c.collectOutbox(s.nodeCore); err != nil {
			return nActive, err
		}
	}
	return nActive, nil
}
