package main

import (
	"fmt"
	"time"

	mc "mobilecongest"
)

// flood-rounds: one reused Scenario runs FloodMax for floodR rounds on
// circulant16384 (k=4), fault-free, on the shard engine with floodShards
// shards, over and over. On the benchmark's single thread the shards'
// phases and barriers still run, interleaved, so the pool's work is
// measured without the host's scheduling in it. The
// round loop dominates and the fault-free zero-alloc path is the one that
// runs; set-up is under a tenth of a run, so set-up-only changes should
// barely move it. Loads internal/congest (shard engine) and internal/graph
// (set-up); bypasses internal/adversary, internal/resilient, Plan, the
// result cache and the server.
const (
	floodN = 16384
	floodK = 4
	floodR = 32
	// floodShards > 1 keeps the shard pool in the run; 1 would run every
	// round on the coordinator alone.
	floodShards = 2
)

type floodRounds struct {
	cfg   config
	g     *mc.Graph
	proto mc.Protocol
	want  []uint64 // the oracle's outputs, computed on first use
}

func newFloodRounds(cfg config, _ *tally) workload { return &floodRounds{cfg: cfg} }

func (f *floodRounds) setup(tr *tracer) (time.Duration, error) {
	id, end := tr.root("setup", "bench.setup")
	defer end()
	return cpuCost(func() error {
		var err error
		tr.timed("setup", id, "graph.build", func() { f.g, err = mc.BuildTopology("circulant", floodN, floodK) })
		if err != nil {
			return err
		}
		tr.timed("setup", id, "mobilecongest.protocol.build", func() {
			f.proto, _, err = mc.BuildProtocol("floodmax", f.g, mc.ProtoParams{Rounds: floodR})
		})
		return err
	})
}

func (f *floodRounds) measure(more keepGoing, tr *tracer) *window {
	if f.want == nil {
		f.want = floodMaxOracle(f.g, floodR)
	}
	w := newWindow(f.cfg.probe)
	opts := []mc.ScenarioOption{
		mc.WithGraph(f.g),
		mc.WithProtocol(f.proto),
		mc.WithEngine(mc.NewShardEngine(floodShards)),
		mc.WithSeed(f.cfg.seed),
	}
	var obs *runObserver
	if tr != nil {
		obs = newRunObserver(tr)
		opts = append(opts, mc.WithObserver(obs))
	}
	sc := mc.NewScenario(opts...)
	w.drive(more, func(i int) {
		run := fmt.Sprintf("run-%d", i)
		id, end := tr.root(run, "bench.run")
		start := selfCPU()
		var tStart int64
		var rtStart rtSample
		if obs != nil {
			obs.reset()
			tStart, rtStart = tr.now(), obs.rt.read()
		}
		res, err := sc.Run()
		cpu := selfCPU() - start
		if obs != nil {
			obs.emit(run, id, "mobilecongest.scenario.run", tStart, tr.now(), rtStart, obs.rt.read())
		}
		if err != nil {
			end()
			w.done(i, cpu, nil, 1, 0, simCounts{}, "", []string{"run error: " + err.Error()})
			return
		}
		var problems []string
		if p := compareOutputs(res.Outputs, f.want); p != "" {
			problems = append(problems, "floodmax: "+p)
		}
		digest := runDigest(res)
		end()
		st := res.Stats
		w.done(i, cpu, nil, 1, st.Messages,
			simCounts{st.Rounds, st.Messages, st.Bytes, st.CorruptedEdgeRounds}, digest, problems)
	})
	return w
}

func (f *floodRounds) layers(*tracer, *window, map[string]metric) {}
func (f *floodRounds) close(*tally)                               {}
func (f *floodRounds) peakRSSMB() float64                         { return peakRSSMB("self") }
