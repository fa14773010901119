package main

import (
	"fmt"
	"math/rand"
	"time"

	mc "mobilecongest"
)

// compiled-byz: the Theorem 1.6 congested-clique compiler ("hardened-clique",
// a Broadcast payload) on clique32 at f=4, under the mobile "flip" and
// "busiest" byzantine adversaries, with per-run seeds drawn from the
// workload seed. One prebuilt run in 16 is under busiest, whose runs take
// about half again as long as flip's: with fewer than 32 runs a window,
// busiest supplies fewer than the 10 samples the tail leaves beyond it, so
// both the median and the tail stay in the flip mode instead of jumping
// between two. The compiled protocol's own compute dominates (sketch
// decoding, GF(p) solves, allocation), inside the collect phase; the engine
// and the adversary each take a few percent, so this is where compiler and
// allocation changes show and where engine-only changes should show
// nothing. Loads internal/resilient (with sketch/gf/ecc/vote),
// internal/adversary, internal/congest (step engine) and the Go runtime;
// bypasses Plan, the result cache and the server. One closed-loop client
// runs them one at a time.
const (
	byzN     = 32
	byzF     = 4
	byzSeeds = 16
)

// byzAdversary is the adversary of the s-th prebuilt run.
func byzAdversary(s int) string {
	if s == byzSeeds-1 {
		return "busiest"
	}
	return "flip"
}

// byzEntry is one prebuilt run: seed, compiled protocol, adversary.
type byzEntry struct {
	seed   int64
	proto  mc.Protocol
	shared any
	advNm  string
	adv    mc.Adversary
	ref    *mc.Result // the uncompiled payload, fault-free, same seed
}

type compiledByz struct {
	cfg     config
	g       *mc.Graph
	entries []*byzEntry
}

func newCompiledByz(cfg config, _ *tally) workload { return &compiledByz{cfg: cfg} }

func (c *compiledByz) setup(tr *tracer) (time.Duration, error) {
	id, end := tr.root("setup", "bench.setup")
	defer end()
	return cpuCost(func() error { return c.build(tr, id) })
}

// build makes the graph and the prebuilt runs.
func (c *compiledByz) build(tr *tracer, id int64) error {
	var err error
	tr.timed("setup", id, "graph.build", func() { c.g, err = mc.BuildTopology("clique", byzN, 0) })
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.cfg.seed))
	c.entries = c.entries[:0]
	for s := 0; s < byzSeeds; s++ {
		seed := rng.Int63()
		var proto mc.Protocol
		var shared any
		tr.timed("setup", id, "resilient.build", func() {
			proto, shared, err = mc.BuildProtocol("hardened-clique", c.g, mc.ProtoParams{Seed: seed, F: byzF})
		})
		if err != nil {
			return err
		}
		e := &byzEntry{seed: seed, proto: proto, shared: shared, advNm: byzAdversary(s)}
		tr.timed("setup", id, "adversary.build", func() { e.adv, err = mc.BuildAdversary(e.advNm, c.g, byzF, seed) })
		if err != nil {
			return err
		}
		c.entries = append(c.entries, e)
	}
	return nil
}

// reference runs the uncompiled Broadcast payload fault-free at the entry's
// seed, before the window opens: the compiled run must reproduce its
// outputs.
func (c *compiledByz) reference(e *byzEntry) (*mc.Result, error) {
	p, _, err := mc.BuildProtocol("broadcast", c.g, mc.ProtoParams{Seed: e.seed, F: byzF})
	if err != nil {
		return nil, err
	}
	res, err := mc.NewScenario(mc.WithGraph(c.g), mc.WithProtocol(p), mc.WithSeed(e.seed)).Run()
	if err != nil {
		return nil, err
	}
	e.ref = res
	return res, nil
}

func (c *compiledByz) measure(more keepGoing, tr *tracer) *window {
	w := newWindow(c.cfg.probe)
	refErr := map[*byzEntry]error{}
	for _, e := range c.entries {
		if _, err := c.reference(e); err != nil {
			refErr[e] = err
		}
	}
	var payload simCounts // the uncompiled runs of the counted operations
	w.drive(more, func(i int) {
		e := c.entries[i%len(c.entries)]
		if err := refErr[e]; err != nil {
			w.done(i, 0, nil, 0, 0, simCounts{}, "", []string{"payload reference: " + err.Error()})
			return
		}
		ref := e.ref
		run := fmt.Sprintf("run-%d", i)
		id, end := tr.root(run, "bench.run")
		opts := []mc.ScenarioOption{mc.WithGraph(c.g), mc.WithProtocol(e.proto), mc.WithShared(e.shared), mc.WithSeed(e.seed)}
		var obs *runObserver
		if tr != nil {
			obs = newRunObserver(tr)
			opts = append(opts, mc.WithAdversary(&tracedAdversary{inner: e.adv, obs: obs}), mc.WithObserver(obs))
		} else {
			opts = append(opts, mc.WithAdversary(e.adv))
		}
		start := selfCPU()
		var tStart int64
		var rtStart rtSample
		if obs != nil {
			tStart, rtStart = tr.now(), obs.rt.read()
		}
		res, err := mc.NewScenario(opts...).Run()
		cpu := selfCPU() - start
		if obs != nil {
			obs.emit(run, id, "mobilecongest.scenario.run", tStart, tr.now(), rtStart, obs.rt.read())
		}
		if err != nil {
			end()
			w.done(i, cpu, nil, 1, 0, simCounts{}, "", []string{e.advNm + " run error: " + err.Error()})
			return
		}
		var problems []string
		want, err := uintOutputs(ref.Outputs)
		if err != nil {
			problems = append(problems, "payload reference: "+err.Error())
		} else if p := compareOutputs(res.Outputs, want); p != "" {
			problems = append(problems, fmt.Sprintf("hardened-clique under %s vs broadcast payload: %s", e.advNm, p))
		}
		digest := runDigest(res)
		end()
		st := res.Stats
		if i < countedOps {
			payload.add(simCounts{ref.Stats.Rounds, ref.Stats.Messages, ref.Stats.Bytes, 0})
		}
		w.done(i, cpu, nil, 1, st.Messages,
			simCounts{st.Rounds, st.Messages, st.Bytes, st.CorruptedEdgeRounds}, digest, problems)
	})
	w.extra["payload.rounds"] = float64(payload.rounds)
	w.extra["payload.messages"] = float64(payload.messages)
	return w
}

// layers reports the compiler's overhead over its payload: the paper's
// round and message blow-up, exact for a given seed.
func (c *compiledByz) layers(_ *tracer, w *window, m map[string]metric) {
	m["resilient.round_overhead"] = metric{ratio(float64(w.counts.rounds), w.extra["payload.rounds"]), "ratio"}
	m["resilient.msg_overhead"] = metric{ratio(float64(w.counts.messages), w.extra["payload.messages"]), "ratio"}
}

func (c *compiledByz) close(*tally)       {}
func (c *compiledByz) peakRSSMB() float64 { return peakRSSMB("self") }
